package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/ledger"
)

func frameSpan(id, seq int, energy float64) ledger.Span {
	return ledger.Span{
		ID: id, Kind: ledger.KindFrame, Seq: seq,
		Start: 1000, End: 2000, Energy: acmp.Joules(energy), Busy: 800,
		Config: "2L@1.6GHz",
		Attrs: map[string]string{
			"governor": "greenweb-u", "decision": "commit",
			"predicted": "8.1ms", "measured": "7.9ms", "outcome": "met",
		},
	}
}

func TestDecisionOf(t *testing.T) {
	sp := frameSpan(7, 3, 0.0025)
	d, ok := DecisionOf(sp)
	if !ok {
		t.Fatal("frame span rejected")
	}
	if d.Span != 7 || d.Frame != 3 || d.Governor != "greenweb-u" ||
		d.Decision != "commit" || d.Predicted != "8.1ms" || d.Measured != "7.9ms" ||
		d.Outcome != "met" || d.Config != "2L@1.6GHz" ||
		d.EnergyJ != 0.0025 || d.StartUS != 1000 || d.EndUS != 2000 || d.BusyUS != 800 {
		t.Errorf("projection = %+v", d)
	}

	if _, ok := DecisionOf(ledger.Span{Kind: ledger.KindIdle}); ok {
		t.Error("idle span accepted as decision")
	}
	if _, ok := DecisionOf(ledger.Span{Kind: ledger.KindEvent}); ok {
		t.Error("event span accepted as decision")
	}
	// Un-annotated, no-commit frames still qualify — decision energies must
	// sum to the ledger's frame-energy total.
	if _, ok := DecisionOf(ledger.Span{Kind: ledger.KindFrame}); !ok {
		t.Error("bare frame span rejected")
	}
}

func TestDecisionsOfFiltersKinds(t *testing.T) {
	spans := []ledger.Span{
		{ID: 1, Kind: ledger.KindIdle},
		frameSpan(2, 1, 0),
		{ID: 3, Kind: ledger.KindEvent},
		frameSpan(4, 0, 0), // no-commit frame
	}
	ds := DecisionsOf(spans)
	if len(ds) != 2 || ds[0].Span != 2 || ds[1].Span != 4 {
		t.Fatalf("decisions = %+v", ds)
	}
}

func TestWriteNDJSON(t *testing.T) {
	ds := DecisionsOf([]ledger.Span{frameSpan(1, 1, 0), frameSpan(2, 2, 0)})
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, ds); err != nil {
		t.Fatal(err)
	}
	var n int
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var d Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		n++
	}
	if n != 2 {
		t.Errorf("lines = %d, want 2", n)
	}
}
