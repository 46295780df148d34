package trajectory

// The encoding/csv-based codec the wire codec replaced, kept as the
// reference its differential tests and fuzz targets compare against.

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sidq/internal/geo"
)

// ReadCSV decodes trajectories written by WriteCSV. Rows are grouped by
// id; each group is returned time-sorted. Group order is by first
// appearance, then id for ties, making the output deterministic.
func ReadCSV(r io.Reader) ([]*Trajectory, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trajectory: read csv header: %w", err)
	}
	if header[0] != "id" {
		return nil, fmt.Errorf("trajectory: unexpected csv header %v", header)
	}
	groups := map[string][]Point{}
	order := map[string]int{}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trajectory: read csv row: %w", err)
		}
		t, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trajectory: bad t %q: %w", rec[1], err)
		}
		x, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trajectory: bad x %q: %w", rec[2], err)
		}
		y, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trajectory: bad y %q: %w", rec[3], err)
		}
		id := rec[0]
		if _, seen := order[id]; !seen {
			order[id] = len(order)
		}
		groups[id] = append(groups[id], Point{T: t, Pos: geo.Pt(x, y)})
	}
	ids := make([]string, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return order[ids[i]] < order[ids[j]] })
	out := make([]*Trajectory, 0, len(ids))
	for _, id := range ids {
		out = append(out, New(id, groups[id]))
	}
	return out, nil
}

// refWriteCSV is WriteCSV as it was: one csv.Writer record per point.
func refWriteCSV(w io.Writer, trs []*Trajectory) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "t", "x", "y"}); err != nil {
		return err
	}
	for _, tr := range trs {
		for _, p := range tr.Points {
			rec := []string{
				tr.ID,
				strconv.FormatFloat(p.T, 'g', -1, 64),
				strconv.FormatFloat(p.Pos.X, 'g', -1, 64),
				strconv.FormatFloat(p.Pos.Y, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// wireRow is one decoded row, floats by bit pattern so NaN compares.
type wireRow struct {
	id      string
	t, x, y uint64
}

// refScanRows lists the rows of data through encoding/csv alone, under
// ScanCSV's two header rules.
func refScanRows(data []byte, needHeader bool) ([]wireRow, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = 4
	var rows []wireRow
	for first := true; ; first = false {
		rec, err := cr.Read()
		if err == io.EOF {
			if first && needHeader {
				return nil, io.EOF
			}
			return rows, nil
		}
		if err != nil {
			return nil, err
		}
		if first {
			if needHeader && rec[0] != "id" {
				return nil, errors.New("unexpected header")
			}
			if needHeader || rec[0] == "id" && rec[1] == "t" && rec[2] == "x" && rec[3] == "y" {
				continue
			}
		}
		var v [3]float64
		for k := range v {
			if v[k], err = strconv.ParseFloat(rec[k+1], 64); err != nil {
				return nil, err
			}
		}
		rows = append(rows, wireRow{rec[0], math.Float64bits(v[0]), math.Float64bits(v[1]), math.Float64bits(v[2])})
	}
}

// scanRows lists the rows of data through ScanCSV, cloning each id as
// the aliasing contract requires of a caller that keeps them.
func scanRows(data []byte, needHeader bool) ([]wireRow, error) {
	var rows []wireRow
	err := ScanCSV(data, needHeader, func(id string, t, x, y float64) error {
		rows = append(rows, wireRow{strings.Clone(id), math.Float64bits(t), math.Float64bits(x), math.Float64bits(y)})
		return nil
	})
	return rows, err
}

// scanSeeds are the bodies the scanner and the reference must agree on
// before any fuzzing: both quoting fixtures of the server's WAL tests,
// every framing case, and the malformed rows.
var scanSeeds = []string{
	"id,t,x,y\nveh-0,0,1,2\nveh-1,0,3,4\nveh-0,1,5,6\n",
	"id,t,x,y\n\"bus \"\"7\"\"\",1,2,3\ntram<1>&co,4,5,6\n",
	"id,t,x,y\r\na,0,1,2\r\nb,1,3,4\r\n",
	"\n\nid,t,x,y\n\na,0,1,2\n\n\nb,1,3,4\n\n",
	"id,t,x,y\na,0,1,2",
	"id,t,x,y\na,0,1,2\r",
	"id,t,x,y\nba\"re,0,1,2\n",
	"id,t,x,y\n\"open,0,1,2\n",
	"id,t,x,y\n\"a\",\"0\",\"1\",\"2\"\n",
	"id,t,x,y\n\"multi\nline\",0,1,2\n",
	"id,t,x,y\na,0,1,2,\n",
	"id,t,x,y\na,0,1\n",
	"id,t,x,y\na,NaN,+Inf,-Inf\n",
	"id,t,x,y\na,0x1p-2,1e400,.5\n",
	"id,t,x,y\na,zero,1,2\n",
	"id,t,x,y\na, 0,1,2\n",
	"id,time,lon,lat\na,0,1,2\n",
	"\"id\",t,x,y\na,0,1,2\n",
	"id,1,0,0\nid,2,1,1\nid,3,2,2\n",
	"a,0,1,2\nid,t,x,y\n",
	"a,0,1,2\n",
	",0,1,2\n",
	"id,t,x\n",
	"\r\r\n",
	"\xff\xfe,0,1,2\n",
	"",
	// Nothing but line ends: a valid chunk of no rows, and the body that
	// made the server's ingest pre-size 48 bytes of slab per byte.
	strings.Repeat("\n", 4096),
}

func FuzzScanCSV(f *testing.F) {
	for _, s := range scanSeeds {
		f.Add([]byte(s), true)
		f.Add([]byte(s), false)
	}
	f.Fuzz(func(t *testing.T, data []byte, needHeader bool) {
		want, wantErr := refScanRows(data, needHeader)
		got, gotErr := scanRows(data, needHeader)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("ScanCSV err = %v, reference err = %v", gotErr, wantErr)
		}
		if gotErr == nil && !equalRows(got, want) {
			t.Fatalf("ScanCSV rows %v, reference %v", got, want)
		}
		if !needHeader {
			return
		}
		// Same accepts, same rows; now the grouping on top of them.
		wantTrs, wantErr := ReadCSV(bytes.NewReader(data))
		gotTrs, gotErr := ReadCSVColumns(bytes.NewReader(data))
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("ReadCSVColumns err = %v, ReadCSV err = %v", gotErr, wantErr)
		}
		if gotErr == nil {
			equalTrajectorySets(t, gotTrs, wantTrs)
		}
	})
}

func equalRows(a, b []wireRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func FuzzAppendCSVRow(f *testing.F) {
	for _, id := range []string{
		"veh-0", `bus "7"`, "tram<1>&co", "", " lead", "trail ", "\tlead", "\u00a0nbsp", "\u2003em", "\u0085nel",
		`\.`, `\.x`, "a,b", "cr\rin", "nl\nin", "\r", `"`, `""`, "\xff\xfe", "dé–já", "id",
	} {
		f.Add(id, 1.5, -0.0, 1e21)
	}
	f.Add("a", math.NaN(), math.Inf(1), math.Inf(-1))
	f.Add("a", 5e-324, 1.7976931348623157e308, 0.30000000000000004)
	for _, v := range wireFloatSeeds {
		f.Add("veh-0", v, -v, v/100)
	}
	f.Fuzz(func(t *testing.T, id string, tt, x, y float64) {
		var want bytes.Buffer
		cw := csv.NewWriter(&want)
		err := cw.Write([]string{
			id,
			strconv.FormatFloat(tt, 'g', -1, 64),
			strconv.FormatFloat(x, 'g', -1, 64),
			strconv.FormatFloat(y, 'g', -1, 64),
		})
		cw.Flush()
		if err != nil || cw.Error() != nil {
			t.Fatal(err, cw.Error())
		}
		got := AppendCSVRow(nil, AppendCSVField(nil, id), tt, x, y)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendCSVRow(%q) = %q, csv.Writer wrote %q", id, got, want.Bytes())
		}
	})
}

// failAfter accepts n writes and fails the next.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n--; w.n < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestWriteCSVMatchesCSVWriter holds WriteCSV to the csv.Writer bytes
// across several flushes, and to reporting a failed write wherever it
// falls.
func TestWriteCSVMatchesCSVWriter(t *testing.T) {
	var trs []*Trajectory
	for k, id := range []string{"veh-0", `bus "7"`, "tram<1>&co", " lead", "", "a,b", `\.`} {
		tr := &Trajectory{ID: id}
		for i := 0; i < 700; i++ {
			tr.Points = append(tr.Points, Point{T: float64(i), Pos: geo.Pt(float64(k)+1/float64(i+3), -1e-7*float64(i))})
		}
		trs = append(trs, tr)
	}
	trs = append(trs, &Trajectory{ID: "empty"})
	var got, want bytes.Buffer
	if err := WriteCSV(&got, trs); err != nil {
		t.Fatal(err)
	}
	if err := refWriteCSV(&want, trs); err != nil {
		t.Fatal(err)
	}
	if want.Len() < 3*RowFlushBytes {
		t.Fatalf("only %d bytes: the output must cross several flushes", want.Len())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteCSV bytes differ from csv.Writer's")
	}
	writes := 0
	for ; WriteCSV(&failAfter{n: writes}, trs) != nil; writes++ {
	}
	if writes < 3 {
		t.Fatalf("WriteCSV reported no error until %d writes were allowed", writes)
	}
	got.Reset()
	if err := WriteCSV(&got, nil); err != nil || got.String() != CSVHeader {
		t.Fatalf("WriteCSV(nil) = %q, %v", got.String(), err)
	}
}

// TestParseCSVKeepsNoReferenceToBody scribbles over the body after the
// parse: ids must have been cloned out of it.
func TestParseCSVKeepsNoReferenceToBody(t *testing.T) {
	body := []byte("id,t,x,y\nveh-0,0,1,2\nveh-1,0,3,4\nveh-0,1,5,6\n")
	trs, err := ParseCSV(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 'X'
	}
	if len(trs) != 2 || trs[0].ID != "veh-0" || trs[1].ID != "veh-1" || trs[0].Len() != 2 {
		t.Fatalf("parsed %+v", trs)
	}
}
