package harness

import (
	"context"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/apps"
)

// TestSmokeSingleApp checks one app across all four evaluated governors and
// logs wall-clock cost, guarding against simulation blowups.
func TestSmokeSingleApp(t *testing.T) {
	app, _ := apps.ByName("MSN")
	for _, kind := range []Kind{Perf, Interactive, GreenWebI, GreenWebU} {
		start := time.Now()
		r, err := ExecuteCell(context.Background(), Cell{App: app, Kind: kind, Full: true})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		wall := time.Since(start)
		t.Logf("%s (wall %v)", r, wall)
		if r.Energy <= 0 || r.Frames <= 0 {
			t.Fatalf("%s: empty measurement: %+v", kind, r)
		}
		if wall > 30*time.Second {
			t.Fatalf("%s: run took %v wall-clock; simulation blowup", kind, wall)
		}
	}
}

// BenchmarkFullInteractionMSN measures one complete evaluation run: load,
// 126-event trace, GreenWeb-I scheduling, metrics.
func BenchmarkFullInteractionMSN(b *testing.B) {
	app, _ := apps.ByName("MSN")
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteCell(context.Background(), Cell{App: app, Kind: GreenWebI, Full: true}); err != nil {
			b.Fatal(err)
		}
	}
}
