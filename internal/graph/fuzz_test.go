package graph

import (
	"strings"
	"testing"
)

// FuzzReadEdgeList asserts the text parser never panics and that any graph
// it accepts satisfies the package invariants.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("1 2\n2 3\n")
	f.Add("# comment\n\n10 20\n20 10\n10 10\n")
	f.Add("1")
	f.Add("a b")
	f.Add("9223372036854775807 -9223372036854775808\n")
	f.Add(strings.Repeat("1 2\n", 100))
	f.Fuzz(func(t *testing.T, data string) {
		g, rm, err := ReadEdgeList(strings.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph invalid: %v", err)
		}
		if rm.Len() != g.NumNodes() {
			t.Fatalf("remapper has %d labels for %d nodes", rm.Len(), g.NumNodes())
		}
	})
}
