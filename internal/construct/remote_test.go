package construct

import (
	"strings"
	"testing"

	"rlnc/internal/local"
)

// TestRemoteBuildersRejectInvalidParams pins the registry's parameter
// checks: parameters arrive from outside the process (a shipped job, a
// serve request), so retry coloring must refuse q < 1 and t < 0 — q = 0
// used to build and then panic inside the run — and Cole–Vishkin must
// refuse MaxIDBits outside [1, 63], which used to run "ok" and output a
// fabricated coloring. Every error of one request is reported together;
// valid parameters at the bounds still build, and every builder's
// algorithm steps one way (the registry refuses anything else).
func TestRemoteBuildersRejectInvalidParams(t *testing.T) {
	bad := []struct {
		key    string
		params []int64
		want   []string
	}{
		{"retry-coloring", []int64{0, 4}, []string{"q = 0"}},
		{"retry-coloring", []int64{-3, 4}, []string{"q = -3"}},
		{"retry-coloring", []int64{3, -1}, []string{"t = -1"}},
		{"retry-coloring", []int64{0, -2}, []string{"q = 0", "t = -2"}},
		{"cole-vishkin", []int64{0}, []string{"maxIDBits = 0"}},
		{"cole-vishkin", []int64{-1}, []string{"maxIDBits = -1"}},
		{"cole-vishkin", []int64{64}, []string{"maxIDBits = 64"}},
	}
	for _, c := range bad {
		_, err := local.BuildRemoteAlgorithm(c.key, c.params)
		if err == nil {
			t.Errorf("%s%v built", c.key, c.params)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s%v: error %q does not name %q", c.key, c.params, err, w)
			}
		}
	}
	good := []struct {
		key    string
		params []int64
	}{
		{"retry-coloring", []int64{1, 0}},
		{"retry-coloring", []int64{3, 4}},
		{"cole-vishkin", []int64{1}},
		{"cole-vishkin", []int64{63}},
		{"luby-mis", nil},
		{"edge-luby-matching", nil},
		{"greedy-mis-from-coloring", []int64{3}},
	}
	for _, c := range good {
		if _, err := local.BuildRemoteAlgorithm(c.key, c.params); err != nil {
			t.Errorf("%s%v: %v", c.key, c.params, err)
		}
	}
}
