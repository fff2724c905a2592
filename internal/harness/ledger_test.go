package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/ledger"
)

// TestLedgerConservationFullSweep is the acceptance check for the energy-
// attribution ledger: across the full Table 3 sweep (every application under
// the paper's two baselines and both GreenWeb scenarios), the frame+idle
// span energies must sum to the meter integral within the conservation
// tolerance, and the span timeline must be structurally sound. Execute
// already fails any run whose ledger misaccounts; this test additionally
// cross-checks the exported summary against the raw spans.
func TestLedgerConservationFullSweep(t *testing.T) {
	kinds := []Kind{Perf, Interactive, GreenWebI, GreenWebU}
	for _, app := range apps.All() {
		for _, kind := range kinds {
			app, kind := app, kind
			t.Run(app.Name+"/"+string(kind), func(t *testing.T) {
				t.Parallel()
				run, err := ExecuteCell(context.Background(), Cell{App: app, Kind: kind, Full: true})
				if err != nil {
					t.Fatal(err)
				}
				if len(run.Spans) == 0 {
					t.Fatal("run produced no spans")
				}

				// Summary columns must re-derive from the raw spans and
				// partition the whole-run meter integral.
				var frame, idle, event float64
				committed := 0
				for _, sp := range run.Spans {
					switch sp.Kind {
					case ledger.KindFrame:
						frame += float64(sp.Energy)
						if sp.Seq > 0 {
							committed++
						}
					case ledger.KindIdle:
						idle += float64(sp.Energy)
					case ledger.KindEvent:
						event += float64(sp.Energy)
					}
					if sp.End < sp.Start || sp.Energy < 0 {
						t.Fatalf("malformed span: %+v", sp)
					}
				}
				if d := math.Abs(frame + idle - float64(run.TotalEnergy)); d > ledger.ConservationTolerance {
					t.Errorf("spans sum to %.12f J, meter integral %.12f J (|Δ|=%.3e)",
						frame+idle, float64(run.TotalEnergy), d)
				}
				if d := math.Abs(frame - float64(run.FrameEnergy)); d > ledger.ConservationTolerance {
					t.Errorf("FrameEnergy=%v disagrees with span sum %v", run.FrameEnergy, frame)
				}
				if d := math.Abs(event - float64(run.EventEnergy)); d > ledger.ConservationTolerance {
					t.Errorf("EventEnergy=%v disagrees with span sum %v", run.EventEnergy, event)
				}
				if committed != len(run.FrameResults) {
					t.Errorf("%d committed frame spans, %d frames in the timeline", committed, len(run.FrameResults))
				}
				if frame <= 0 {
					t.Error("no energy attributed to frames")
				}
			})
		}
	}
}

// TestRunTraceExport checks that a real run's spans export as valid Chrome
// trace-event JSON (what greenbench -trace and the greensrv trace endpoint
// serve).
func TestRunTraceExport(t *testing.T) {
	app := apps.All()[0]
	run, err := ExecuteCell(context.Background(), Cell{App: app, Kind: GreenWebU, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	proc := ledger.Process{PID: 1, Name: app.Name, Spans: run.Spans, Marks: run.ConfigMarks}
	if err := ledger.WriteTrace(&buf, proc); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			TS  int64  `json:"ts"`
			Dur int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var complete int
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			complete++
			if ev.Dur < 0 || ev.TS < 0 {
				t.Errorf("malformed complete event: %+v", ev)
			}
		}
	}
	// Each span is one complete event, plus one nested "decide:" event per
	// frame span carrying a governor decision.
	want := len(run.Spans)
	var decided int
	for _, sp := range run.Spans {
		if sp.Kind == ledger.KindFrame && sp.Attrs["decision"] != "" {
			want++
			decided++
		}
	}
	if complete != want {
		t.Errorf("trace has %d complete events for %d spans + %d decisions", complete, len(run.Spans), decided)
	}
	if decided == 0 {
		t.Error("GreenWeb-U run exported no nested decision spans")
	}
}

// TestGreenWebRunAnnotatesSpans checks that the runtime's scheduling
// decisions reach the frame spans: a GreenWeb run must carry governor
// annotations on at least one frame.
func TestGreenWebRunAnnotatesSpans(t *testing.T) {
	app := apps.All()[0]
	run, err := ExecuteCell(context.Background(), Cell{App: app, Kind: GreenWebU, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	var annotated, withOutcome int
	for _, sp := range run.Spans {
		if sp.Kind != ledger.KindFrame {
			continue
		}
		if sp.Attrs["governor"] == "GreenWeb-U" {
			annotated++
		}
		if sp.Attrs["outcome"] != "" {
			withOutcome++
		}
	}
	if annotated == 0 {
		t.Error("no frame spans carry governor annotations")
	}
	if withOutcome == 0 {
		t.Error("no frame spans carry feedback outcomes")
	}
}

// TestRunTraceBytesPinned pins the exact bytes ledger.WriteTrace produces
// for one fixed run (the first catalog app under GreenWeb-U, full trace):
// the Chrome trace encoder may be refactored, but greenbench -trace and the
// /trace endpoint must keep emitting the same document byte for byte.
func TestRunTraceBytesPinned(t *testing.T) {
	app := apps.All()[0]
	run, err := ExecuteCell(context.Background(), Cell{App: app, Kind: GreenWebU, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	proc := ledger.Process{PID: 1, Name: app.Name, Spans: run.Spans, Marks: run.ConfigMarks}
	if err := ledger.WriteTrace(&buf, proc); err != nil {
		t.Fatal(err)
	}
	const (
		wantLen    = 41271
		wantSHA256 = "51cda44a2392356e76a561424a37d722cea05726b1af08333dacc3c2f11cd0a2"
	)
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != wantLen || got != wantSHA256 {
		t.Fatalf("trace bytes moved: %d bytes sha256 %s, want %d bytes sha256 %s\n%.600s",
			buf.Len(), got, wantLen, wantSHA256, buf.Bytes())
	}
}
