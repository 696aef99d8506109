package mobiceal_test

import (
	"reflect"
	"strings"
	"testing"

	"mobiceal"
	"mobiceal/internal/obs"
)

// TestFlightContinuityPublicVsHidden pins the one property the request
// descriptor exists for: the id a request is given at the queue reaches the
// leaf device on every stack, so a recorded trace does not tell which kind
// of volume served it. The hidden volume's stack has one layer more than
// the public one's (the slice that hides the verifier block); a layer that
// forwards the blocks but not the id splits every hidden request into a
// queue-only flight and an orphan thinp/devop flight — a shape the public
// volume never produces.
func TestFlightContinuityPublicVsHidden(t *testing.T) {
	const bs = 4096
	run := func(hidden bool) []string {
		t.Helper()
		cfg := testConfig(7)
		cfg.X = 1 // stored_rand mod 1 is 0: the dummy trigger never fires
		sys, err := mobiceal.Setup(mobiceal.NewMemDevice(bs, 4096), cfg, "decoy", []string{"hidden"})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		vol, err := sys.OpenPublic("decoy")
		if hidden {
			vol, err = sys.OpenHidden("hidden")
		}
		if err != nil {
			t.Fatal(err)
		}
		rec := sys.FlightRecorder()
		rec.SetEnabled(true)
		for _, f := range []*mobiceal.Future{
			vol.SubmitWrite(8, make([]byte, 2*bs)),
			vol.Flush(),
			vol.SubmitDiscard(8, 2),
		} {
			if err := f.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		rec.SetEnabled(false)
		return obs.Signatures(rec.Events())
	}
	pub, hid := run(false), run(true)
	if !reflect.DeepEqual(pub, hid) {
		t.Errorf("flight shapes tell the volumes apart:\n public: %q\n hidden: %q", pub, hid)
	}
	for name, sigs := range map[string][]string{"public": pub, "hidden": hid} {
		if len(sigs) != 3 {
			t.Errorf("%s: %d flights for 3 requests: %q", name, len(sigs), sigs)
		}
		var wrote, flushed bool
		for _, s := range sigs {
			if !strings.HasPrefix(s, "Q/") || !strings.Contains(s, " C/") {
				t.Errorf("%s: flight is not one whole request (Q … C): %q", name, s)
			}
			wrote = wrote || strings.Contains(s, "provision/") && strings.Contains(s, "map-resolve/") && strings.Contains(s, "devop/write")
			flushed = flushed || strings.Contains(s, "devop/sync") && strings.Contains(s, "commit-join/") && strings.Contains(s, "commit-flip/")
		}
		if !wrote || !flushed {
			t.Errorf("%s: thinp and leaf stages missing from the request flights: %q", name, sigs)
		}
	}
}
