package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// TestSubHubWatermarkScansLinear pins the fan-out hub's linear-cost
// invariant on the dashboard fleet: the reclaim watermark is rescanned
// only when its last subscriber moves off it, and each rescan raises it,
// so full cursor scans never exceed published sequences — however many
// subscribers each delivery is made to. A per-delivery rescan would count
// one scan per delivery instead (about 80k at 2,000 subscribers).
func TestSubHubWatermarkScansLinear(t *testing.T) {
	cfg, err := scenario.LoadFile("../../scenarios/dashboards.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1000, 2000} {
		t.Run(fmt.Sprintf("subs=%d", n), func(t *testing.T) {
			subs := *cfg.Subscribers
			subs.Count = n
			c := cfg
			c.Subscribers = &subs
			rt, err := core.Build(c)
			if err != nil {
				t.Fatal(err)
			}
			res, err := rt.Run()
			if err != nil {
				t.Fatal(err)
			}
			st := res.SubHub
			if st.Published == 0 || st.Delivered == 0 {
				t.Fatalf("fleet saw no traffic: %+v", st)
			}
			if st.WatermarkScans == 0 {
				t.Errorf("watermark never rescanned over %d deliveries; counter unwired?", st.Delivered)
			}
			if st.WatermarkScans > st.Published {
				t.Errorf("watermark scans %d > published %d (delivered %d): rescans are no longer amortized",
					st.WatermarkScans, st.Published, st.Delivered)
			}
		})
	}
}
