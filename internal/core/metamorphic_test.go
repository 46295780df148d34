package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sidq/internal/core"
	"sidq/internal/geo"
	"sidq/internal/server"
	"sidq/internal/trajectory"
)

// cleanedBody is a /v1/clean answer taken apart: the stages it names,
// its ids in the order it writes them, and each id's rows without the
// id field.
type cleanedBody struct {
	stages string
	ids    []string
	rows   map[string][]string
}

func postClean(t *testing.T, h http.Handler, body []byte) cleanedBody {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/clean?maxspeed=10&interval=1", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	if lines[0] != strings.TrimSuffix(trajectory.CSVHeader, "\n") {
		t.Fatalf("header %q", lines[0])
	}
	c := cleanedBody{stages: rec.Header().Get("X-Sidq-Stages"), rows: map[string][]string{}}
	for _, l := range lines[1:] {
		id, rest, _ := strings.Cut(l, ",")
		if _, ok := c.rows[id]; !ok {
			c.ids = append(c.ids, id)
		}
		c.rows[id] = append(c.rows[id], rest)
	}
	return c
}

// row parses one "t,x,y" row of a cleanedBody.
func row(t *testing.T, s string) [3]float64 {
	t.Helper()
	var v [3]float64
	for i, f := range strings.Split(s, ",") {
		var err error
		if v[i], err = strconv.ParseFloat(f, 64); err != nil {
			t.Fatalf("row %q: %v", s, err)
		}
	}
	return v
}

func csvBody(t *testing.T, trs []*trajectory.Trajectory) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trajectory.WriteCSV(&buf, trs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mapPoints returns a copy of trs with f applied to every point and
// rename to every id.
func mapPoints(trs []*trajectory.Trajectory, rename func(string) string, f func(trajectory.Point) trajectory.Point) []*trajectory.Trajectory {
	out := make([]*trajectory.Trajectory, len(trs))
	for i, tr := range trs {
		pts := make([]trajectory.Point, len(tr.Points))
		for j, p := range tr.Points {
			pts[j] = f(p)
		}
		out[i] = &trajectory.Trajectory{ID: rename(tr.ID), Points: pts}
	}
	return out
}

// TestCleanRouteMetamorphic holds /v1/clean to five relations between
// bodies, on the dirty datasets of seeds 1–6:
//   - the body's rows reversed: each id's rows are bit-identical, and
//     only the order of the ids follows their first appearance;
//   - the ids renamed: each trajectory's rows are bit-identical;
//   - every t shifted by 2^20 s: the output's t moves by exactly that,
//     and x and y are bit-identical;
//   - every position translated by 4 096 m: the output moves by 4 096 m
//     within 2.7e-12 m;
//   - each trajectory cleaned alone under the dataset's stages gets the
//     bits it gets in the whole run.
//
// The last is the independence between trajectories that lets the
// runner clean one trajectory at a time through every stage.
func TestCleanRouteMetamorphic(t *testing.T) {
	h := server.New()
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			body := csvBody(t, core.DirtyDataset(seed).Trajectories)
			trs, err := trajectory.ParseCSV(body)
			if err != nil {
				t.Fatal(err)
			}
			base := postClean(t, h, body)
			if base.stages == "" {
				t.Fatal("the dirty dataset plans no stage")
			}
			same := func(label string, got cleanedBody, rename func(string) string, rowsEqual func(id string, got, want []string)) {
				t.Helper()
				if got.stages != base.stages {
					t.Fatalf("%s: stages %q, want %q", label, got.stages, base.stages)
				}
				if len(got.ids) != len(base.ids) {
					t.Fatalf("%s: %d ids, want %d", label, len(got.ids), len(base.ids))
				}
				for _, id := range base.ids {
					g, ok := got.rows[rename(id)]
					if !ok || len(g) != len(base.rows[id]) {
						t.Fatalf("%s: id %s has %d rows, want %d", label, rename(id), len(g), len(base.rows[id]))
					}
					rowsEqual(id, g, base.rows[id])
				}
			}
			bitIdentical := func(label string) func(string, []string, []string) {
				return func(id string, got, want []string) {
					if !slices.Equal(got, want) {
						t.Fatalf("%s: id %s's rows differ", label, id)
					}
				}
			}
			keep := func(id string) string { return id }

			lines := strings.SplitAfter(string(body), "\n")
			lines = lines[:len(lines)-1] // the empty tail after the last "\n"
			slices.Reverse(lines[1:])
			reversed := postClean(t, h, []byte(strings.Join(lines, "")))
			same("reversed", reversed, keep, bitIdentical("reversed"))
			var firstSeen []string
			for _, l := range lines[1:] {
				if id, _, _ := strings.Cut(l, ","); !slices.Contains(firstSeen, id) {
					firstSeen = append(firstSeen, id)
				}
			}
			if !slices.Equal(reversed.ids, firstSeen) {
				t.Fatalf("reversed: ids in order %v, want first appearance %v", reversed.ids, firstSeen)
			}

			rename := func(id string) string { return "renamed-" + id + "-x" }
			renamed := postClean(t, h, csvBody(t, mapPoints(trs, rename, func(p trajectory.Point) trajectory.Point { return p })))
			same("renamed", renamed, rename, bitIdentical("renamed"))

			const shift = 1 << 20
			shifted := postClean(t, h, csvBody(t, mapPoints(trs, keep, func(p trajectory.Point) trajectory.Point {
				p.T += shift
				return p
			})))
			same("shifted", shifted, keep, func(id string, got, want []string) {
				for i := range want {
					g, w := row(t, got[i]), row(t, want[i])
					if g[0] != w[0]+shift || math.Float64bits(g[1]) != math.Float64bits(w[1]) || math.Float64bits(g[2]) != math.Float64bits(w[2]) {
						t.Fatalf("shifted: id %s row %d is %q, want %q with t + 2^20", id, i, got[i], want[i])
					}
				}
			})

			// g-move is exact (Sterbenz), so the check measures the
			// output's own error, not a rounding of w+move.
			const move, tol = 4096, 2.7e-12
			translated := postClean(t, h, csvBody(t, mapPoints(trs, keep, func(p trajectory.Point) trajectory.Point {
				p.Pos = p.Pos.Add(geo.Pt(move, move))
				return p
			})))
			same("translated", translated, keep, func(id string, got, want []string) {
				for i := range want {
					g, w := row(t, got[i]), row(t, want[i])
					if g[0] != w[0] || math.Abs(g[1]-move-w[1]) > tol || math.Abs(g[2]-move-w[2]) > tol {
						t.Fatalf("translated: id %s row %d is %q, want %q moved by %d m", id, i, got[i], want[i], move)
					}
				}
			})

			ds := &core.Dataset{Trajectories: trs, MaxSpeed: 10, ExpectedInterval: 1}
			_, stages, _, err := core.PlanAndRunIterativeWith(context.Background(), nil, ds, core.DefaultTargets(), 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range trs {
				alone := &core.Dataset{Trajectories: []*trajectory.Trajectory{tr}, MaxSpeed: 10, ExpectedInterval: 1}
				out, _, err := core.DefaultRunner().Run(context.Background(), alone, stages)
				if err != nil {
					t.Fatal(err)
				}
				got := postCleaned(t, csvBody(t, out.Trajectories))
				if !slices.Equal(got, base.rows[tr.ID]) {
					t.Fatalf("alone: id %s cleaned by itself differs from its rows in the whole run", tr.ID)
				}
			}
		})
	}
}

// postCleaned splits a one-trajectory CSV into its rows without the id
// field.
func postCleaned(t *testing.T, body []byte) []string {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")[1:]
	for i, l := range lines {
		_, lines[i], _ = strings.Cut(l, ",")
	}
	return lines
}
