package roadnet

// Graph serialization: a tagged-row CSV format small enough to write
// by hand and stable enough to check into a deployment repo, so
// sidqserve can load a road network from a flag instead of only
// synthesizing grid cities.
//
//	node,<x>,<y>
//	edge,<from>,<to>,<speedcap>
//
// Node ids are implicit: the i-th node row is node i, which is exactly
// what AddNode assigns.
// Edge rows reference those implicit ids; edge length is recomputed
// from the node geometry on load, as AddEdge does.

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"sidq/internal/geo"
)

// ReadCSV parses a graph from the tagged-row format. Edge rows may
// only reference node rows that precede them.
func ReadCSV(r io.Reader) (*Graph, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // row width depends on the tag
	g := NewGraph()
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("parse graph csv: %w", err)
		}
		line++
		switch rec[0] {
		case "node":
			if len(rec) != 3 {
				return nil, fmt.Errorf("parse graph csv: line %d: node row wants 3 fields, got %d", line, len(rec))
			}
			x, err := parseCoord(rec[1])
			if err != nil {
				return nil, fmt.Errorf("parse graph csv: line %d: bad x %q: %w", line, rec[1], err)
			}
			y, err := parseCoord(rec[2])
			if err != nil {
				return nil, fmt.Errorf("parse graph csv: line %d: bad y %q: %w", line, rec[2], err)
			}
			g.AddNode(geo.Pt(x, y))
		case "edge":
			if len(rec) != 4 {
				return nil, fmt.Errorf("parse graph csv: line %d: edge row wants 4 fields, got %d", line, len(rec))
			}
			from, err := parseNodeRef(rec[1], g.NumNodes())
			if err != nil {
				return nil, fmt.Errorf("parse graph csv: line %d: bad from %q: %w", line, rec[1], err)
			}
			to, err := parseNodeRef(rec[2], g.NumNodes())
			if err != nil {
				return nil, fmt.Errorf("parse graph csv: line %d: bad to %q: %w", line, rec[2], err)
			}
			speed, err := parseCoord(rec[3])
			if err != nil || speed <= 0 {
				return nil, fmt.Errorf("parse graph csv: line %d: bad speedcap %q", line, rec[3])
			}
			g.AddEdge(from, to, speed)
		default:
			return nil, fmt.Errorf("parse graph csv: line %d: unknown row tag %q", line, rec[0])
		}
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("parse graph csv: no node rows")
	}
	return g, nil
}

func parseCoord(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("not finite")
	}
	return v, nil
}

func parseNodeRef(s string, numNodes int) (NodeID, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if v < 0 || v >= numNodes {
		return 0, fmt.Errorf("node %d not yet defined (%d nodes so far)", v, numNodes)
	}
	return NodeID(v), nil
}
