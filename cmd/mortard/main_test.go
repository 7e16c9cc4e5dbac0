package main

import (
	"strings"
	"testing"
)

// Each backend refuses the flags it cannot honour and names the flag that
// does the job there; every other combination starts.
func TestCheckMode(t *testing.T) {
	for _, tc := range []struct {
		name         string
		udp, live    bool
		fail         float64
		serve, chaos bool
		wantErr      string // substring; "" means accepted
	}{
		{name: "sim"},
		{name: "sim fail", fail: 0.2},
		{name: "sim serve", serve: true, wantErr: "-serve needs a wall-clock backend"},
		{name: "sim chaos", chaos: true, wantErr: "-chaos needs a wall-clock backend"},
		{name: "live everything", live: true, fail: 0.2, serve: true, chaos: true},
		{name: "udp serve chaos", udp: true, serve: true, chaos: true},
		{name: "udp fail", udp: true, fail: 0.2, wantErr: "-chaos"},
		{name: "udp fail with chaos", udp: true, fail: 0.2, chaos: true, wantErr: "-fail"},
	} {
		err := checkMode(tc.udp, tc.live, tc.fail, tc.serve, tc.chaos)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.wantErr)
		}
	}
}
