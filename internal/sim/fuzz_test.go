package sim

import (
	"fmt"
	"slices"
	"testing"
)

// refQueue is the naive reference the fuzzer checks the heap against: a
// flat list of every event ever scheduled, scanned for the smallest
// (at, seq) on each step. Nothing is recycled, so a handle is simply an
// index into the list and cancelling a fired event is trivially a no-op.
type refQueue struct {
	now    Time
	events []refEvent
	fired  uint64
}

type refEvent struct {
	at                  Time
	fn                  func()
	cancelled, finished bool
}

func (q *refQueue) at(t Time, fn func()) int {
	q.events = append(q.events, refEvent{at: t, fn: fn})
	return len(q.events) - 1
}

func (q *refQueue) cancel(h int) {
	if !q.events[h].finished {
		q.events[h].cancelled = true
	}
}

// next returns the index of the earliest live pending event, or -1.
func (q *refQueue) next() int {
	best := -1
	for i, e := range q.events {
		if e.finished || e.cancelled {
			continue
		}
		// Indices are scheduling order, so the first minimum is the FIFO one.
		if best < 0 || e.at < q.events[best].at {
			best = i
		}
	}
	return best
}

func (q *refQueue) nextAt() Time {
	if i := q.next(); i >= 0 {
		return q.events[i].at
	}
	return Forever
}

func (q *refQueue) step() bool {
	i := q.next()
	if i < 0 {
		return false
	}
	q.events[i].finished = true
	q.now = q.events[i].at
	q.fired++
	q.events[i].fn()
	return true
}

func (q *refQueue) runUntil(deadline Time) {
	for {
		i := q.next()
		if i < 0 || q.events[i].at > deadline {
			break
		}
		q.step()
	}
	if q.now < deadline {
		q.now = deadline
	}
}

// eventQueue is the surface both implementations expose to the fuzz
// program; a handle is the index of its scheduling call.
type eventQueue interface {
	Now() Time
	schedule(t Time, fn func())
	cancel(h int)
	step() bool
	runUntil(t Time)
	nextAt() Time
	firedCount() uint64
}

type simQueue struct {
	*Simulator
	handles []Event
}

func (q *simQueue) schedule(t Time, fn func()) { q.handles = append(q.handles, q.At(t, "fuzz", fn)) }
func (q *simQueue) cancel(h int)               { q.handles[h].Cancel() }
func (q *simQueue) step() bool                 { return q.Step() }
func (q *simQueue) runUntil(t Time)            { q.RunUntil(t) }
func (q *simQueue) nextAt() Time               { return q.NextEventAt() }
func (q *simQueue) firedCount() uint64         { return q.Fired() }

type naiveQueue struct{ refQueue }

func (q *naiveQueue) Now() Time                  { return q.now }
func (q *naiveQueue) schedule(t Time, fn func()) { q.at(t, fn) }
func (q *naiveQueue) firedCount() uint64         { return q.fired }

// runProgram interprets ops against q and returns a transcript of every
// firing and every observable after each op. Ops are byte pairs (opcode,
// argument): At, After, Immediately, Cancel (of any handle ever issued,
// stale ones included), Step and RunUntil. Every third event schedules an
// Immediately child when it fires, so same-instant FIFO across nesting is
// covered too.
func runProgram(q eventQueue, prog []byte) []string {
	var log []string
	issued := 0
	var schedule func(t Time)
	schedule = func(t Time) {
		id := issued
		issued++
		q.schedule(t, func() {
			log = append(log, fmt.Sprintf("fire %d @%d", id, q.Now()))
			if id%3 == 0 && issued < 4096 {
				schedule(q.Now())
			}
		})
	}
	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i]%6, Duration(prog[i+1])
		switch op {
		case 0:
			schedule(q.Now().Add(arg * 3))
		case 1:
			schedule(q.Now().Add(arg % 8))
		case 2:
			schedule(q.Now())
		case 3:
			if issued > 0 {
				q.cancel(int(arg) % issued)
			}
		case 4:
			q.step()
		case 5:
			q.runUntil(q.Now().Add(arg))
		}
		log = append(log, fmt.Sprintf("op %d: now=%d next=%d fired=%d", i/2, q.Now(), q.nextAt(), q.firedCount()))
	}
	for q.step() {
	}
	return append(log, fmt.Sprintf("drained: now=%d fired=%d", q.Now(), q.firedCount()))
}

// FuzzEventQueue differentially checks the simulator's recycled heap
// against the naive reference: same firing order, clock and counts for any
// interleaving of scheduling, cancellation (including through handles whose
// records were since reused) and stepping.
func FuzzEventQueue(f *testing.F) {
	// Schedule, fire, reschedule into the recycled record, then cancel the
	// first (stale) handle: the new occupant must still fire.
	f.Add([]byte{1, 5, 4, 0, 1, 5, 3, 0, 4, 0})
	f.Add([]byte{0, 9, 1, 2, 2, 0, 3, 1, 5, 40, 2, 0, 4, 0, 3, 0, 0, 1})
	f.Add([]byte{2, 0, 2, 0, 2, 0, 3, 1, 4, 0, 2, 0, 3, 1, 5, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		got := runProgram(&simQueue{Simulator: New()}, prog)
		want := runProgram(&naiveQueue{}, prog)
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("diverged at line %d: sim %q, reference %q", i, got[i], want[i])
				}
			}
			t.Fatalf("transcript lengths differ: sim %d, reference %d", len(got), len(want))
		}
	})
}

// TestStaleHandleCancelIsNoop: once an event fires, its record is reused by
// the next schedule; cancelling through the old handle must not touch the
// new occupant.
func TestStaleHandleCancelIsNoop(t *testing.T) {
	s := New()
	old := s.After(Millisecond, "old", func() {})
	s.Run()
	fired := false
	cur := s.After(Millisecond, "new", func() { fired = true })
	if old.rec != cur.rec {
		t.Fatal("the fired event's record was not reused")
	}
	old.Cancel()
	if old.Cancelled() || cur.Cancelled() {
		t.Fatal("stale Cancel reached the new occupant")
	}
	if old.Name() != "" || old.At() != 0 {
		t.Fatalf("stale handle reads %q at %v, want zero values", old.Name(), old.At())
	}
	s.Run()
	if !fired {
		t.Fatal("new occupant did not fire after a stale Cancel")
	}
	var zero Event
	zero.Cancel() // the zero handle is stale too
}
