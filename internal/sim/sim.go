// Package sim provides a deterministic discrete-event simulation kernel.
//
// All GreenWeb subsystems — the browser engine, the ACMP hardware model,
// CPU governors, and interaction replay — share a single virtual clock and
// event queue owned by a Simulator. Time is measured in integer microseconds
// so that runs are exactly reproducible across machines.
//
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-breaking), which keeps multi-"thread" pipelines such
// as the browser's renderer/compositor interaction deterministic.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in microseconds since simulation start.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Common durations, mirroring the time package for readability at call sites.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Forever is a sentinel time later than any schedulable event.
const Forever Time = math.MaxInt64

// FromStd converts a standard library duration to a simulation duration,
// truncating to microsecond resolution.
func FromStd(d time.Duration) Duration { return Duration(d.Microseconds()) }

// Std converts a simulation duration to a standard library duration.
func (d Duration) Std() time.Duration { return time.Duration(d) * time.Microsecond }

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports the duration as floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

func (d Duration) String() string { return d.Std().String() }

// Add offsets a time by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub reports the duration elapsed between u and t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the time as floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	if t == Forever {
		return "forever"
	}
	return (time.Duration(t) * time.Microsecond).String()
}

// Event is a handle to a scheduled callback, returned by the scheduling
// methods so callers can cancel pending events. It is a small value: the
// simulator recycles an event's record once the event fires or is
// discarded, and the handle carries the sequence number it was scheduled
// under so it can tell its own event from a later one that reuses the
// record. Until the record is reused the handle reads as before; after
// that it is stale: Cancel is a no-op and the accessors report zero values.
// The zero Event is a stale handle.
type Event struct {
	rec *event
	seq uint64
}

// event is the recycled record behind an Event handle.
type event struct {
	at     Time
	seq    uint64
	fn     func()
	name   string
	cancel bool
}

// live returns the handle's record, or nil once the record has been reused.
func (h Event) live() *event {
	if h.rec == nil || h.rec.seq != h.seq {
		return nil
	}
	return h.rec
}

// At reports when the event is scheduled to fire.
func (h Event) At() Time {
	if e := h.live(); e != nil {
		return e.at
	}
	return 0
}

// Name reports the diagnostic label given at scheduling time.
func (h Event) Name() string {
	if e := h.live(); e != nil {
		return e.name
	}
	return ""
}

// Cancelled reports whether Cancel was called on the event.
func (h Event) Cancelled() bool {
	e := h.live()
	return e != nil && e.cancel
}

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired, or through a stale handle, is a no-op.
func (h Event) Cancel() {
	if e := h.live(); e != nil {
		e.cancel = true
	}
}

// entry is one heap slot. The ordering key is copied out of the record so
// sifting compares without dereferencing.
type entry struct {
	at  Time
	seq uint64
	ev  *event
}

// before orders entries by time, then by scheduling order (FIFO ties).
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Simulator owns the virtual clock and the pending event queue.
type Simulator struct {
	now     Time
	queue   []entry  // binary min-heap on (at, seq)
	free    []*event // records of fired or discarded events, for reuse
	seq     uint64
	stopped bool
	// Stats
	fired uint64
}

// New returns a simulator with the clock at zero and no pending events.
func New() *Simulator {
	return &Simulator{}
}

// Now reports the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Pending reports the number of events waiting to fire (including cancelled
// events that have not yet been discarded).
func (s *Simulator) Pending() int { return len(s.queue) }

// Fired reports how many events have executed since the simulator was
// created.
func (s *Simulator) Fired() uint64 { return s.fired }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a logic error in a discrete-event model.
func (s *Simulator) At(t Time, name string, fn func()) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now (%v)", name, t, s.now))
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		e = new(event)
	}
	*e = event{at: t, seq: s.seq, fn: fn, name: name}
	s.seq++
	s.push(entry{at: t, seq: e.seq, ev: e})
	return Event{rec: e, seq: e.seq}
}

// After schedules fn to run d after the current time. Negative d panics.
func (s *Simulator) After(d Duration, name string, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, name))
	}
	return s.At(s.now.Add(d), name, fn)
}

// Immediately schedules fn at the current time, after all events already
// scheduled for this instant.
func (s *Simulator) Immediately(name string, fn func()) Event {
	return s.At(s.now, name, fn)
}

// Stop makes Run return after the currently executing event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Step fires the single next event, advancing the clock to its timestamp.
// It reports whether an event fired (false when the queue is empty).
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		e := s.pop()
		if e.cancel {
			s.recycle(e)
			continue
		}
		fn := e.fn
		s.now = e.at
		s.fired++
		s.recycle(e)
		fn()
		return true
	}
	return false
}

// Run fires events until the queue drains or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil fires events with timestamps at or before deadline, then advances
// the clock to the deadline if the queue drained early or the next event is
// later.
func (s *Simulator) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped {
		e := s.peek()
		if e == nil || e.at > deadline {
			break
		}
		s.Step()
	}
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
}

// RunFor runs the simulation for a further duration d of virtual time.
func (s *Simulator) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// NextEventAt reports the timestamp of the next non-cancelled pending event,
// or Forever when the queue is empty.
func (s *Simulator) NextEventAt() Time {
	e := s.peek()
	if e == nil {
		return Forever
	}
	return e.at
}

// peek returns the next non-cancelled event, discarding cancelled ones at
// the head of the queue.
func (s *Simulator) peek() *event {
	for len(s.queue) > 0 {
		e := s.queue[0].ev
		if !e.cancel {
			return e
		}
		s.recycle(s.pop())
	}
	return nil
}

// recycle returns a popped record to the free list. Its key, name and
// cancel flag stay readable through old handles until At reuses it.
func (s *Simulator) recycle(e *event) {
	e.fn = nil
	s.free = append(s.free, e)
}

// push adds x to the heap, sifting it up past every later entry.
func (s *Simulator) push(x entry) {
	q := append(s.queue, x)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
	s.queue = q
}

// pop removes and returns the earliest event. The queue must be non-empty.
func (s *Simulator) pop() *event {
	q := s.queue
	top := q[0].ev
	n := len(q) - 1
	last := q[n]
	q[n] = entry{}
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(q[c]) {
				c = r
			}
			if !q[c].before(last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	s.queue = q
	return top
}
