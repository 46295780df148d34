package roadnet

import (
	"strings"
	"testing"

	"sidq/internal/geo"
)

func TestGraphCSVHandWritten(t *testing.T) {
	in := "node,0,0\nnode,100,0\nnode,100,50\nedge,0,1,15\nedge,1,2,10\n"
	g, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if e := g.Edge(0); e.Length != 100 {
		t.Fatalf("edge 0 length %v, want 100 (recomputed from geometry)", e.Length)
	}
	if n := g.Node(2); n.Pos != geo.Pt(100, 50) {
		t.Fatalf("node 2 at %v", n.Pos)
	}
}

func TestGraphCSVRejectsMalformed(t *testing.T) {
	cases := []string{
		"",                                 // empty: no nodes
		"edge,0,1,15\n",                    // edge before nodes
		"node,0,0\nedge,0,5,15\n",          // forward node reference
		"node,0,NaN\n",                     // non-finite coordinate
		"node,0,0\nnode,1,1\nedge,0,1,0\n", // non-positive speed
		"vertex,0,0\n",                     // unknown tag
		"node,0\n",                         // short node row
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV(%q) accepted malformed input", in)
		}
	}
}
