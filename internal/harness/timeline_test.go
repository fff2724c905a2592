package harness

import (
	"context"
	"reflect"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/obs"
)

// TestTimelineRoundTrip: a real run's timeline survives EncodeTimeline →
// SetEncodedTimeline → Timeline exactly — spans with their Attrs, config
// marks with their From/To configurations — while the receiving run's own
// timeline fields stay nil.
func TestTimelineRoundTrip(t *testing.T) {
	app := apps.All()[0]
	run, err := ExecuteCell(context.Background(), Cell{App: app, Kind: GreenWebU, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := run.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	if ds := obs.DecisionsOf(want.Spans); len(want.Spans) == 0 || len(want.ConfigMarks) == 0 || len(ds) == 0 {
		t.Fatalf("run timeline has %d spans, %d marks, %d frame spans; want all non-empty",
			len(want.Spans), len(want.ConfigMarks), len(ds))
	}
	b, err := EncodeTimeline(run)
	if err != nil {
		t.Fatal(err)
	}
	var remote Run
	remote.SetEncodedTimeline(b)
	got, err := remote.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("decoded timeline differs from the run's own")
	}
	if remote.Spans != nil || remote.ConfigMarks != nil {
		t.Fatal("Timeline filled the run's fields; it must decode without retaining")
	}

	remote.SetEncodedTimeline(b[:len(b)/2])
	if _, err := remote.Timeline(); err == nil {
		t.Fatal("a truncated encoding decoded cleanly")
	}
}
