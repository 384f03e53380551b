package cubicle

import (
	"strings"
	"testing"
)

// TestParseMode: every mode comes back from its command-line name, and a
// name that is no mode's fails with an error listing the four.
func TestParseMode(t *testing.T) {
	for _, c := range []struct {
		name string
		want Mode
	}{
		{"unikraft", ModeUnikraft},
		{"no-mpk", ModeTrampoline},
		{"no-acl", ModeNoACL},
		{"full", ModeFull},
	} {
		got, err := ParseMode(c.name)
		if err != nil || got != c.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "bogus", "cubicleos", "FULL", "no_mpk"} {
		_, err := ParseMode(bad)
		if err == nil {
			t.Errorf("ParseMode(%q) succeeded", bad)
			continue
		}
		for _, name := range []string{"unikraft", "no-mpk", "no-acl", "full"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("ParseMode(%q) error %q does not list %s", bad, err, name)
			}
		}
	}
}
