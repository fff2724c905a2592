package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/fleet"
)

// rawFrame assembles a frame by hand: a payload length, an envelope
// length, then body, so tests can lie in either length.
func rawFrame(payloadLen, envLen uint32, body []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, payloadLen)
	b = binary.BigEndian.AppendUint32(b, envLen)
	return append(b, body...)
}

func encodeFrame(t testing.TB, f frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frameCode reports the frameError code err carries, or -1.
func frameCode(err error) frameErrCode {
	var fe *frameError
	if errors.As(err, &fe) {
		return fe.code
	}
	return -1
}

// TestReadFrameTypedErrors: each way a frame can be malformed is refused
// with its own code, before the frame reaches a caller.
func TestReadFrameTypedErrors(t *testing.T) {
	env := []byte(`{"t":"pong","id":1}`)
	result := encodeFrame(t, frame{T: frameResult, ID: 7, Result: &wireResult{}, Trailer: []byte(`{"spans":[]}`)})
	corrupt := bytes.Clone(result)
	corrupt[len(corrupt)-2] ^= 0x20 // inside the trailer
	stray := encodeFrame(t, frame{T: framePong, ID: 1, Trailer: []byte("x")})

	for _, tc := range []struct {
		name string
		in   []byte
		want frameErrCode
	}{
		{"zero payload", rawFrame(0, 0, nil), errFrameLength},
		{"payload shorter than envelope length field", rawFrame(3, 0, nil), errFrameLength},
		{"payload past the cap", rawFrame(maxFramePayload+1, 1, nil), errFrameLength},
		{"empty envelope", rawFrame(4, 0, nil), errEnvelopeLength},
		{"envelope past payload", rawFrame(uint32(4+len(env)), uint32(len(env)+1), env), errEnvelopeLength},
		{"short header", []byte{0, 0, 0}, errTornFrame},
		{"short envelope", rawFrame(uint32(4+len(env)), uint32(len(env)), env[:5]), errTornFrame},
		{"short trailer", result[:len(result)-3], errTornFrame},
		{"header only", rawFrame(uint32(4+len(env)), uint32(len(env)), nil), errTornFrame},
		{"undecodable envelope", rawFrame(7, 3, []byte("{x}")), errBadEnvelope},
		{"trailer checksum", corrupt, errTrailerCRC},
		{"trailer on a pong", stray, errStrayTrailer},
	} {
		_, err := readFrame(bytes.NewReader(tc.in))
		if got := frameCode(err); got != tc.want {
			t.Errorf("%s: readFrame error %v (code %d), want code %d", tc.name, err, got, tc.want)
		}
	}

	f, err := readFrame(bytes.NewReader(result))
	if err != nil || f.T != frameResult || f.ID != 7 || string(f.Trailer) != `{"spans":[]}` {
		t.Fatalf("intact result frame read back as %+v, %v", f, err)
	}
	if _, err := readFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF (a clean close between frames)", err)
	}
}

// TestReadFrameAllocatesAsDataArrives: a length prefix that claims the
// whole 64 MiB cap, followed by a few bytes, costs about one read chunk —
// not the claimed size.
func TestReadFrameAllocatesAsDataArrives(t *testing.T) {
	in := rawFrame(maxFramePayload, maxFramePayload-4, []byte(`{"t":"ping"}`))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if frameCode(err) != errTornFrame {
		t.Fatalf("readFrame = %v, want a torn frame", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*readChunk {
		t.Fatalf("readFrame allocated %d bytes for a %d-byte input", got, len(in))
	}
}

// FuzzReadFrame: arbitrary bytes never panic readFrame, and every refusal
// is typed; valid frames round-trip writeFrame→readFrame exactly, and any
// single corrupted trailer byte is caught by the checksum.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{}, uint64(0), []byte{})
	f.Add(encodeFrame(f, frame{T: framePing, ID: 3}), uint64(3), []byte(`{}`))
	f.Add(encodeFrame(f, frame{T: frameJob, ID: 4, Job: &fleet.Job{App: "Todo", Kind: "Perf", Phase: fleet.Full}}), uint64(9), []byte(`{"spans":[{"id":1}]}`))
	f.Add(encodeFrame(f, frame{T: frameResult, ID: 5, Result: &wireResult{Worker: 1}, Trailer: []byte("timeline")}), uint64(1<<40), []byte{0})
	f.Add(rawFrame(maxFramePayload, 8, []byte(`{"t":"x"}`)), uint64(2), []byte("ab"))
	f.Fuzz(func(t *testing.T, data []byte, id uint64, trailer []byte) {
		r := bytes.NewReader(data)
		for {
			_, err := readFrame(r)
			if err == io.EOF {
				break
			}
			if err != nil {
				if frameCode(err) < 0 {
					t.Fatalf("untyped readFrame error %v", err)
				}
				break
			}
		}

		in := frame{T: frameResult, ID: id, Result: &wireResult{Worker: int(id % 7)}, Trailer: trailer}
		wire := encodeFrame(t, in)
		out, err := readFrame(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("valid frame refused: %v", err)
		}
		if out.T != in.T || out.ID != in.ID || out.Result == nil || out.Result.Worker != in.Result.Worker ||
			!bytes.Equal(out.Trailer, in.Trailer) {
			t.Fatalf("round trip changed the frame: %+v → %+v", in, out)
		}
		if len(trailer) > 0 {
			bad := bytes.Clone(wire)
			bad[len(bad)-1-int(id%uint64(len(trailer)))] ^= byte(1 << (id % 8))
			if _, err := readFrame(bytes.NewReader(bad)); frameCode(err) != errTrailerCRC {
				t.Fatalf("corrupt trailer read as %v, want a checksum refusal", err)
			}
		}
	})
}
