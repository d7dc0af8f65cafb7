package graph

import (
	"strings"
	"testing"
)

// FuzzReadEdgeList is differential: every input must load exactly as the
// preserved seed loader loads it (graph, labels and error text) at one and
// two workers, and any accepted graph must validate. Fuzz inputs stay
// inside one 4 MiB ingest chunk, so chunk seams are covered by
// TestSnapLoaderOracleRandomLarge instead.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("1 2\n2 3\n")
	f.Add("# comment\n\n10 20\n20 10\n10 10\n")
	f.Add("1")
	f.Add("a b")
	f.Add("9223372036854775807 -9223372036854775808\n")
	f.Add(strings.Repeat("1 2\n", 100))
	f.Fuzz(func(t *testing.T, data string) {
		requireSameLoad(t, data, 1)
		requireSameLoad(t, data, 2)
	})
}
