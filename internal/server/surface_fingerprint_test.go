package server

import "testing"

// TestSurfaceFingerprintGolden pins surfaceFingerprint's strings byte
// for byte. They key the resident-surface LRU, the build flights and
// the job records, so a change of encoding would silently split or
// merge surfaces and orphan the fingerprints job records already carry.
func TestSurfaceFingerprintGolden(t *testing.T) {
	var spaced []int
	for i := 199; i >= 0; i-- {
		spaced = append(spaced, 7*i)
	}
	cases := []struct {
		model   string
		targets []int
		method  string
		want    string
	}{
		{"voting-0", []int{1}, "euler", "e920a80d1182097a21cc5676a9e9fc33"},
		{"voting-0", []int{5, 3, 3, 1000, 0}, "laguerre", "8a19ca520ae1ed0ea0def3c25770d28b"},
		{"3f2a9c", []int{}, "", "410e3549e8e103dcf9c56ae0ce6b9fe2"},
		{"m", []int{2, 1, 2147483648, 7}, "euler", "a73138e29d62aff59fdcfbe7bc23ad54"},
		{"voting-0", []int{-1, 4}, "auto", "fde91d44468db18170e3e155d2c05e8e"},
		{"voting-1", spaced, "euler", "9faba8c8628d15c7cdc34c6e6891a140"},
	}
	for _, c := range cases {
		if got := surfaceFingerprint(c.model, c.targets, c.method); got != c.want {
			t.Errorf("surfaceFingerprint(%q, %d targets, %q) = %s, want %s", c.model, len(c.targets), c.method, got, c.want)
		}
	}
}
