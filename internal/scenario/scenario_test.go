package scenario

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/campaign"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
)

// TestConfigsMatchRecordedJSON pins each mode's Config constructor to
// the JSON `faultsim -config-out` writes for it at seed 1 (testdata),
// so a recorded run's config block cannot drift from what runs.
func TestConfigsMatchRecordedJSON(t *testing.T) {
	cases := map[string]campaign.Config{
		"net":         NetConfig(1, nil, 50),
		"net-chaos":   NetConfig(1, faultmodel.DefaultNetworkCampaign(1, NetVictim), 1500),
		"quorum":      QuorumConfig(1, 5, "always:1", 50),
		"control-on":  ControlConfig(1, 100, true),
		"control-off": ControlConfig(1, 100, false),
		"gray-on":     GrayConfig(1, 100, true, "constant:20"),
		"gray-off":    GrayConfig(1, 100, false, "constant:20"),
	}
	for name, cfg := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent(cfg, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if string(got)+"\n" != string(want) {
			t.Errorf("%s config:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestConfigDrivesTheFleet checks the Config is what runs: a hedge delay
// set in it is the delay the built client reports.
func TestConfigDrivesTheFleet(t *testing.T) {
	const hedge = 7 * time.Millisecond
	for _, cfg := range []campaign.Config{
		NetConfig(1, nil, 5),
		ControlConfig(1, 5, false),
		GrayConfig(1, 5, false, "constant:2"),
	} {
		if time.Duration(cfg.Executor.HedgeAfter) == hedge {
			t.Fatalf("%s: default hedge delay already %v", cfg.Mode, hedge)
		}
		cfg.Executor.HedgeAfter = faultmodel.Duration(hedge)
		res, err := Run(context.Background(), cfg, Options{})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Mode, err)
		}
		if res.HedgeAfter != hedge {
			t.Errorf("%s: client hedges after %v, want the Config's %v", cfg.Mode, res.HedgeAfter, hedge)
		}
		if len(res.Trials) != cfg.Requests {
			t.Errorf("%s: %d rows, want one per request (%d)", cfg.Mode, len(res.Trials), cfg.Requests)
		}
	}
	if _, err := Run(context.Background(), campaign.Config{Mode: "sim", Requests: 1}, Options{}); err == nil {
		t.Error("Run accepted a non-fleet mode")
	}
}
