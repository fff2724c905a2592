package shard

import (
	"bytes"
	"context"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
)

// FuzzHandshake feeds arbitrary bytes to both ends of the handshake over
// net.Pipe. Neither side may panic. A Worker starts no job before a valid
// hello, and answers any other complete first frame — a hello of another
// protocol version included — with an error welcome. The dial side accepts
// only a well-formed welcome of this protocol version that advertises at
// most maxWelcomeWorkers slots.
func FuzzHandshake(f *testing.F) {
	hello := encodeFrame(f, frame{T: frameHello, Proto: protoVersion, Trace: true})
	job := encodeFrame(f, frame{T: frameJob, ID: 1, Job: &fleet.Job{App: "Todo", Kind: "Perf", Phase: fleet.Full}})
	welcome := encodeFrame(f, frame{T: frameWelcome, Proto: protoVersion, Workers: 2, Name: "w", Trace: true, PID: 7, Now: 1})
	f.Add(append(bytes.Clone(hello), job...), welcome)
	f.Add(encodeFrame(f, frame{T: frameHello, Proto: protoVersion - 1}), encodeFrame(f, frame{T: frameWelcome, Err: "no"}))
	f.Add(append(job, hello...), encodeFrame(f, frame{T: frameWelcome, Proto: protoVersion + 1}))
	f.Add(hello[:len(hello)-1], encodeFrame(f, frame{T: framePong, Proto: protoVersion}))
	f.Add([]byte{}, append(bytes.Clone(welcome), 0xff))
	f.Add(hello, encodeFrame(f, frame{T: frameWelcome, Proto: protoVersion, Workers: 1 << 30, Name: "w"}))
	f.Fuzz(func(t *testing.T, toWorker, toDialer []byte) {
		fuzzWorkerHandshake(t, toWorker)
		fuzzDialHandshake(t, toDialer)
	})
}

func fuzzWorkerHandshake(t *testing.T, in []byte) {
	var executed atomic.Int64
	w := NewWorker(WorkerOptions{Pool: fleet.Options{Workers: 1, Execute: func(context.Context, fleet.Job) (*harness.Run, error) {
		executed.Add(1)
		return &harness.Run{}, nil
	}}})
	defer w.Close()
	first, firstErr := readFrame(bytes.NewReader(in))
	validHello := firstErr == nil && first.T == frameHello && first.Proto == protoVersion

	client, server := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		w.serveConn(context.Background(), server, "fuzz")
	}()
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		client.Write(in) // fails once the worker hangs up
		if firstErr != nil {
			// An incomplete first frame would hold the worker's read open.
			client.Close()
		}
	}()
	if firstErr == nil {
		reply, err := readFrame(client)
		switch {
		case err != nil:
			t.Fatalf("worker sent no welcome to a complete first frame: %v", err)
		case reply.T != frameWelcome:
			t.Fatalf("worker answered the handshake with %q", reply.T)
		case validHello && reply.Err != "":
			t.Fatalf("valid hello refused: %s", reply.Err)
		case !validHello && reply.Err == "":
			t.Fatalf("first frame %q proto %d got a welcome without an error", first.T, first.Proto)
		}
		go io.Copy(io.Discard, client) // results and pongs
	}
	<-wrote
	client.Close()
	<-served
	if !validHello && (w.jobsTotal.Load() != 0 || executed.Load() != 0) {
		t.Fatalf("worker started %d jobs without a valid hello", w.jobsTotal.Load())
	}
}

func fuzzDialHandshake(t *testing.T, in []byte) {
	first, err := readFrame(bytes.NewReader(in))
	want := err == nil && first.T == frameWelcome && first.Err == "" && first.Proto == protoVersion &&
		first.Workers <= maxWelcomeWorkers

	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		if _, err := readFrame(server); err != nil {
			return
		}
		server.Write(in)
	}()
	opts := RemoteOptions{
		Dial:        func(context.Context) (net.Conn, error) { return client, nil },
		DialTimeout: 5 * time.Second,
	}
	opts.fill()
	n := &RemoteNode{opts: opts}
	sess, _, _, err := n.dialAndShake()
	if (err == nil) != want {
		t.Fatalf("dial side accepted=%v (err %v), want %v for first frame %+v", err == nil, err, want, first)
	}
	if sess != nil {
		sess.conn.Close()
	}
}

// TestRefuseOversizedWelcome: a worker advertising more slots than
// maxWelcomeWorkers is refused at the handshake, so no pool ever starts a
// puller per advertised slot.
func TestRefuseOversizedWelcome(t *testing.T) {
	addr := fakeWorker(t, frame{T: frameWelcome, Proto: protoVersion,
		Workers: 1 << 30, Name: "greedy"}, make(chan fleet.Job))
	n, err := NewRemoteNode(0, fastRemote(addr))
	if err == nil {
		n.Close()
		t.Fatal("NewRemoteNode accepted a welcome advertising 1<<30 slots")
	}
}
