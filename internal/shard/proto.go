// Remote node wire protocol: length-prefixed frames over a byte stream (TCP
// in production, net.Pipe or a chaos-wrapped conn in tests).
//
// Frame layout, protocol version 3:
//
//	<u32 payload length> <u32 envelope length> <envelope JSON> <trailer>
//
// Both lengths are big-endian; the payload length counts everything after
// itself, so it is 4 + envelope length + trailer length. The envelope is
// the JSON frame below. The trailer is opaque bytes: empty for every frame
// type except result, where it carries the run's attribution timeline
// (ledger spans and config marks) in harness.EncodeTimeline form. The
// envelope's crc field is the trailer's CRC-32C (Castagnoli); readFrame
// verifies it, so a corrupt trailer fails the frame on arrival exactly as
// an undecodable envelope does, and is never stored. The
// coordinator keeps a result's trailer undecoded until a trace or event
// export asks for the timeline (harness.Run.Timeline).
//
// Every frame is written with a single Write call, so frame boundaries
// are observable to transport wrappers (the chaos injector keys its faults
// on the write-side frame index). Frame types:
//
//	client → worker   {"t":"hello","proto":3,"trace":true}
//	worker → client   {"t":"welcome","proto":3,"workers":N,"name":"...",
//	                   "trace":true,"now_us":T,"pid":P}
//	client → worker   {"t":"job","id":SEQ,"job":{...fleet.Job}}
//	worker → client   {"t":"result","id":SEQ,"result":{...wireResult},
//	                   "crc":C} + timeline trailer
//	client → worker   {"t":"ping","id":SEQ}
//	worker → client   {"t":"pong","id":SEQ}
//	client → worker   {"t":"cancel","id":SEQ}       best-effort job abort
//
// Job and result frames are multiplexed by id; pings flow on the same
// connection while jobs execute, so heartbeat RTT measures the transport,
// not the work queue.
//
// Tracing is feature-negotiated, not versioned: the hello's trace field
// advertises that the client can propagate span contexts, and a worker that
// understands (and was not started with -no-obs) echoes trace:true plus its
// clock (now_us, for handshake-time offset estimation) and pid (the merged
// trace's process row key) in the welcome. A worker that predates the field
// simply omits it — JSON ignores unknown hello fields — and the client then
// strips trace contexts from jobs it ships there, so mixed-version fleets
// keep working with tracing degraded to the nodes that support it.
package shard

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"github.com/wattwiseweb/greenweb/internal/fleet"
)

// protoVersion is the handshake version; a worker refuses a mismatched
// client so a silent semantic skew cannot masquerade as a flaky network.
// Version 2 split each frame into an envelope and a checksummed trailer;
// version 3 dropped the decision log from the trailer (the coordinator
// derives it from the spans).
const protoVersion = 3

// maxWelcomeWorkers bounds the execution slots a welcome may advertise.
// The coordinator starts one puller goroutine per slot, so a corrupt or
// hostile count is refused at the handshake.
const maxWelcomeWorkers = 1024

// maxFramePayload bounds one frame. The largest legitimate payload — a
// result carrying a full-trace run's ledger spans and config marks — is a
// few megabytes; 64 MiB keeps a corrupt length prefix from allocating the
// heap away.
const maxFramePayload = 64 << 20

// readChunk is the most readBytes allocates ahead of the data actually
// received, so a lying length costs at most this much.
const readChunk = 1 << 20

// castagnoli is the CRC-32C table for trailer checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame type tags.
const (
	frameHello   = "hello"
	frameWelcome = "welcome"
	frameJob     = "job"
	frameResult  = "result"
	framePing    = "ping"
	framePong    = "pong"
	frameCancel  = "cancel"
)

// frame is the wire envelope plus its trailer. Unused fields are omitted
// per type.
type frame struct {
	T       string      `json:"t"`
	ID      uint64      `json:"id,omitempty"`
	Proto   int         `json:"proto,omitempty"`   // hello/welcome
	Workers int         `json:"workers,omitempty"` // welcome
	Name    string      `json:"name,omitempty"`    // welcome: worker identity
	Trace   bool        `json:"trace,omitempty"`   // hello/welcome: tracing negotiated
	Now     int64       `json:"now_us,omitempty"`  // welcome: worker clock, unix µs
	PID     int         `json:"pid,omitempty"`     // welcome: worker process id
	Job     *fleet.Job  `json:"job,omitempty"`
	Result  *wireResult `json:"result,omitempty"`
	Err     string      `json:"err,omitempty"` // welcome refusal
	CRC     uint32      `json:"crc,omitempty"` // CRC-32C of Trailer; set by writeFrame

	// Trailer is the opaque bytes after the envelope: a result's encoded
	// timeline, empty for every other frame type.
	Trailer []byte `json:"-"`
}

// frameErrCode enumerates the ways readFrame refuses a malformed frame.
type frameErrCode int

const (
	errFrameLength frameErrCode = iota
	errEnvelopeLength
	errTornFrame
	errBadEnvelope
	errTrailerCRC
	errStrayTrailer
)

var frameErrText = [...]string{
	errFrameLength:    "frame length out of range",
	errEnvelopeLength: "envelope length out of range",
	errTornFrame:      "torn frame",
	errBadEnvelope:    "decoding frame",
	errTrailerCRC:     "trailer checksum mismatch",
	errStrayTrailer:   "trailer on a frame type that carries none",
}

// frameError is readFrame's typed refusal. Every one breaks the session,
// so the peer's in-flight jobs re-home.
type frameError struct {
	code   frameErrCode
	detail string
	err    error
}

func (e *frameError) Error() string {
	msg := "shard: " + frameErrText[e.code]
	if e.detail != "" {
		msg += " (" + e.detail + ")"
	}
	if e.err != nil {
		msg += ": " + e.err.Error()
	}
	return msg
}

func (e *frameError) Unwrap() error { return e.err }

// writeFrame stamps the trailer checksum and writes one frame with a single
// Write call.
func writeFrame(w io.Writer, f frame) error {
	f.CRC = crc32.Checksum(f.Trailer, castagnoli)
	env, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("shard: encoding %s frame: %w", f.T, err)
	}
	n := 4 + len(env) + len(f.Trailer)
	if n > maxFramePayload {
		return fmt.Errorf("shard: %s frame payload %d bytes exceeds %d", f.T, n, maxFramePayload)
	}
	buf := make([]byte, 4+n)
	binary.BigEndian.PutUint32(buf, uint32(n))
	binary.BigEndian.PutUint32(buf[4:], uint32(len(env)))
	copy(buf[8:], env)
	copy(buf[8+len(env):], f.Trailer)
	_, err = w.Write(buf)
	return err
}

// readFrame reads one frame, validating both lengths before allocating and
// the trailer checksum before returning. The returned Trailer is its own
// allocation, sized to the trailer alone.
func readFrame(r io.Reader) (frame, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return frame{}, err // a clean close between frames
		}
		return frame{}, torn(err)
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 4 || n > maxFramePayload {
		return frame{}, &frameError{code: errFrameLength, detail: fmt.Sprint(n)}
	}
	envLen := binary.BigEndian.Uint32(hdr[4:])
	if envLen == 0 || envLen > n-4 {
		return frame{}, &frameError{code: errEnvelopeLength, detail: fmt.Sprintf("%d of %d", envLen, n)}
	}
	env, err := readBytes(r, int(envLen))
	if err != nil {
		return frame{}, torn(err)
	}
	var trailer []byte
	if k := int(n - 4 - envLen); k > 0 {
		if trailer, err = readBytes(r, k); err != nil {
			return frame{}, torn(err)
		}
	}
	var f frame
	if err := json.Unmarshal(env, &f); err != nil {
		return frame{}, &frameError{code: errBadEnvelope, err: err}
	}
	if len(trailer) > 0 && f.T != frameResult {
		return frame{}, &frameError{code: errStrayTrailer, detail: f.T}
	}
	if sum := crc32.Checksum(trailer, castagnoli); sum != f.CRC {
		return frame{}, &frameError{code: errTrailerCRC, detail: fmt.Sprintf("got %08x, envelope says %08x", sum, f.CRC)}
	}
	f.Trailer = trailer
	return f, nil
}

// torn classifies a read error inside a frame: the stream ending there
// means the peer died mid-frame, which chaos tests assert distinctly.
func torn(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return &frameError{code: errTornFrame, err: io.ErrUnexpectedEOF}
	}
	return err
}

// readBytes reads exactly n bytes, allocating at most readChunk ahead of
// the bytes that have arrived.
func readBytes(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, readChunk))
	for len(buf) < n {
		k := min(n-len(buf), readChunk)
		buf = slices.Grow(buf, k)[:len(buf)+k]
		if _, err := io.ReadFull(r, buf[len(buf)-k:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}
