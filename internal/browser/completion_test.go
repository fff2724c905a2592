package browser

import (
	"slices"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// hookGovernor records completions and runs hook inside OnEventComplete,
// the way a governor's reaction can release work that other inputs hold.
type hookGovernor struct {
	recordingGovernor
	hook func(UID)
}

func (g *hookGovernor) OnEventComplete(uid UID) {
	g.recordingGovernor.OnEventComplete(uid)
	if g.hook != nil {
		g.hook(uid)
	}
}

// newCompletionEngine returns an engine with no page and n injected inputs,
// each holding the one in-flight reference newInput takes.
func newCompletionEngine(n int) (*Engine, *hookGovernor, []UID) {
	s := sim.New()
	e := New(s, acmp.NewCPU(s, acmp.DefaultPower()), nil)
	g := &hookGovernor{}
	e.SetGovernor(g)
	uids := make([]UID, n)
	for i := range uids {
		uids[i] = e.newInput("click", "box")
	}
	return e, g, uids
}

// Inputs that reach zero before the same check complete in ascending UID
// order, whatever order they were released in; an input re-referenced
// before the check does not complete.
func TestCompletionSameCheckAscendingUID(t *testing.T) {
	e, g, u := newCompletionEngine(4)
	for _, i := range []int{2, 0, 3, 1} {
		e.ref(u[i], -1)
	}
	e.ref(u[3], +1)
	e.checkComplete()
	if want := []UID{u[0], u[1], u[2]}; !slices.Equal(g.completed, want) {
		t.Fatalf("completed %v, want %v", g.completed, want)
	}
	e.ref(u[3], -1)
	e.checkComplete()
	if want := []UID{u[0], u[1], u[2], u[3]}; !slices.Equal(g.completed, want) {
		t.Fatalf("completed %v, want %v", g.completed, want)
	}
}

// An input re-referenced and released after it completed never completes
// a second time.
func TestCompletionNeverTwice(t *testing.T) {
	e, g, u := newCompletionEngine(1)
	e.ref(u[0], -1)
	e.checkComplete()
	e.ref(u[0], +1)
	e.ref(u[0], -1)
	e.checkComplete()
	e.checkComplete()
	if want := []UID{u[0]}; !slices.Equal(g.completed, want) {
		t.Fatalf("completed %v, want %v", g.completed, want)
	}
}

// An input the governor's OnEventComplete drives to zero completes on the
// next check, not in the pass that ran the callback.
func TestCompletionZeroedInCallbackWaitsForNextCheck(t *testing.T) {
	e, g, u := newCompletionEngine(2)
	g.hook = func(uid UID) {
		if uid == u[0] {
			e.ref(u[1], -1)
		}
	}
	e.ref(u[0], -1)
	e.checkComplete()
	if want := []UID{u[0]}; !slices.Equal(g.completed, want) {
		t.Fatalf("after first check completed %v, want %v", g.completed, want)
	}
	e.checkComplete()
	if want := []UID{u[0], u[1]}; !slices.Equal(g.completed, want) {
		t.Fatalf("after second check completed %v, want %v", g.completed, want)
	}
}
