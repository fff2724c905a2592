package harness

import (
	"encoding/json"
	"fmt"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// Timeline is a run's attribution timeline: the ledger spans and the
// configuration-change history. It is the bulk of a run and only the trace
// and event exports read it; the event export projects the per-frame
// decision log from the spans (obs.DecisionOf).
type Timeline struct {
	Spans       []ledger.Span
	ConfigMarks []ledger.ConfigMark
}

// Timeline returns the run's attribution timeline. A run executed in this
// process answers from its Spans and ConfigMarks. A run that arrived
// encoded (SetEncodedTimeline) leaves those nil and decodes its retained
// bytes on every call, so nothing decoded outlives the request that asked
// for it.
func (r *Run) Timeline() (Timeline, error) {
	if r.encodedTimeline == nil {
		return Timeline{Spans: r.Spans, ConfigMarks: r.ConfigMarks}, nil
	}
	var w wireTimeline
	if err := json.Unmarshal(r.encodedTimeline, &w); err != nil {
		return Timeline{}, fmt.Errorf("harness: decoding timeline: %w", err)
	}
	t := Timeline{Spans: w.Spans}
	for _, m := range w.ConfigMarks {
		t.ConfigMarks = append(t.ConfigMarks, ledger.ConfigMark{
			At:   m.At,
			From: acmp.Config{Cluster: acmp.Cluster(m.FromCluster), MHz: m.FromMHz},
			To:   acmp.Config{Cluster: acmp.Cluster(m.ToCluster), MHz: m.ToMHz},
		})
	}
	return t, nil
}

// SetEncodedTimeline makes b, an EncodeTimeline result, the run's timeline
// source for Timeline. The run keeps b without parsing or copying it.
func (r *Run) SetEncodedTimeline(b []byte) { r.encodedTimeline = b }

// EncodeTimeline encodes the run's timeline for a peer process, whose
// SetEncodedTimeline and Timeline reproduce it exactly.
func EncodeTimeline(r *Run) ([]byte, error) {
	t, err := r.Timeline()
	if err != nil {
		return nil, err
	}
	w := wireTimeline{Spans: t.Spans}
	for _, m := range t.ConfigMarks {
		w.ConfigMarks = append(w.ConfigMarks, wireConfigMark{
			At:          m.At,
			FromCluster: int(m.From.Cluster), FromMHz: m.From.MHz,
			ToCluster: int(m.To.Cluster), ToMHz: m.To.MHz,
		})
	}
	b, err := json.Marshal(w)
	if err != nil {
		return nil, fmt.Errorf("harness: encoding timeline: %w", err)
	}
	return b, nil
}

// wireTimeline is Timeline's encoded form.
type wireTimeline struct {
	Spans       []ledger.Span    `json:"spans,omitempty"`
	ConfigMarks []wireConfigMark `json:"config_marks,omitempty"`
}

// wireConfigMark mirrors ledger.ConfigMark, whose From/To fields are
// deliberately excluded from its own JSON form.
type wireConfigMark struct {
	At          sim.Time `json:"at_us"`
	FromCluster int      `json:"fc"`
	FromMHz     int      `json:"fm"`
	ToCluster   int      `json:"tc"`
	ToMHz       int      `json:"tm"`
}
