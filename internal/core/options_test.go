package core

import "testing"

// TestSAXAlphabetDefaults: an alphabet below 2 has no breakpoints, so it
// resolves to the default alphabet like 0 does; 2 and up are kept.
func TestSAXAlphabetDefaults(t *testing.T) {
	cases := []struct{ in, want int }{
		{-4, 3}, {0, 3}, {1, 3}, {2, 2}, {3, 3}, {10, 10},
	}
	for _, tc := range cases {
		got := NewDetector(Options{SAXAlphabet: tc.in}).Options().SAXAlphabet
		if got != tc.want {
			t.Errorf("SAXAlphabet %d resolved to %d, want %d", tc.in, got, tc.want)
		}
	}
}
