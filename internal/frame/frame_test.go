package frame

import (
	"reflect"
	"testing"
)

func TestFromRowsRoundTrip(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12}}
	f, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if f.N() != 4 || f.Dim() != 3 || f.Stride() != 3 {
		t.Fatalf("shape %dx%d stride %d", f.N(), f.Dim(), f.Stride())
	}
	if !reflect.DeepEqual(f.ToRows(), rows) {
		t.Fatalf("ToRows = %v", f.ToRows())
	}
	// FromRows copies: mutating the source must not reach the frame.
	rows[0][0] = 99
	if f.At(0, 0) != 1 {
		t.Fatal("FromRows aliased its input")
	}
	// Contiguity: row i starts at i*Dim of one backing array.
	data := f.Data()
	if len(data) != 12 || data[3] != 4 || data[11] != 12 {
		t.Fatalf("backing %v", data)
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged input must fail")
	}
	f, err := FromRows(nil)
	if err != nil || f.N() != 0 {
		t.Fatalf("empty input: %v, n=%d", err, f.N())
	}
}

func TestRowIsView(t *testing.T) {
	f := MustFromRows([][]float64{{1, 2}, {3, 4}})
	r := f.Row(1)
	r[0] = 30
	if f.At(1, 0) != 30 {
		t.Fatal("Row must be a zero-copy view")
	}
	// The view's capacity is clipped: append must not clobber row 2.
	g := MustFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	row0 := g.Row(0)
	_ = append(row0, 99)
	if g.At(1, 0) != 3 {
		t.Fatal("append through a row view clobbered the next row")
	}
}

func TestColGather(t *testing.T) {
	f := MustFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := f.Col(1, nil)
	if !reflect.DeepEqual(got, []float64{2, 4, 6}) {
		t.Fatalf("Col(1) = %v", got)
	}
	// Reuses dst capacity.
	buf := make([]float64, 0, 8)
	got2 := f.Col(0, buf)
	if &got2[0] != &buf[:1][0] {
		t.Fatal("Col did not reuse dst")
	}
}

func TestAppendRow(t *testing.T) {
	f := WithCapacity(2, 4)
	f.AppendRow([]float64{1, 2})
	f.AppendRow([]float64{3, 4})
	if f.N() != 2 || f.At(1, 1) != 4 {
		t.Fatalf("after appends: %v", f.ToRows())
	}
	// Zero-value frame adopts the first row's width.
	var z Frame
	z.AppendRow([]float64{7, 8, 9})
	if z.Dim() != 3 || z.N() != 1 {
		t.Fatalf("zero-value append: %dx%d", z.N(), z.Dim())
	}
}

func TestSliceIsZeroCopy(t *testing.T) {
	f := MustFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	s := f.Slice(1, 3)
	if s.N() != 2 || s.At(0, 0) != 3 || s.At(1, 1) != 6 {
		t.Fatalf("slice = %v", s.ToRows())
	}
	s.Set(0, 0, 33)
	if f.At(1, 0) != 33 {
		t.Fatal("Slice must share the parent's backing array")
	}
	if e := f.Slice(2, 2); e.N() != 0 {
		t.Fatal("empty slice")
	}
}

func TestGatherDetaches(t *testing.T) {
	f := MustFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	g := f.Gather([]int{2, 0})
	if !reflect.DeepEqual(g.ToRows(), [][]float64{{5, 6}, {1, 2}}) {
		t.Fatalf("gather = %v", g.ToRows())
	}
	g.Set(0, 0, 99)
	if f.At(2, 0) != 5 {
		t.Fatal("Gather must copy, not alias")
	}
}

func TestSelectColsAndDropCol(t *testing.T) {
	f := MustFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	k := f.SelectCols([]int{2, 0})
	if !reflect.DeepEqual(k.ToRows(), [][]float64{{3, 1}, {6, 4}}) {
		t.Fatalf("SelectCols = %v", k.ToRows())
	}
	d := f.DropCol(1)
	if !reflect.DeepEqual(d.ToRows(), [][]float64{{1, 3}, {4, 6}}) {
		t.Fatalf("DropCol = %v", d.ToRows())
	}
	d.Set(0, 0, 42)
	if f.At(0, 0) != 1 {
		t.Fatal("SelectCols/DropCol must detach")
	}
}

func TestCloneRepacksViews(t *testing.T) {
	f := MustFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	c := f.Slice(1, 3).Clone()
	if c.Stride() != c.Dim() || !reflect.DeepEqual(c.ToRows(), [][]float64{{3, 4}, {5, 6}}) {
		t.Fatalf("clone = %v stride %d", c.ToRows(), c.Stride())
	}
	c.Set(0, 0, 77)
	if f.At(1, 0) != 3 {
		t.Fatal("Clone must detach")
	}
}

func TestResizeReusesBacking(t *testing.T) {
	var f Frame
	f.Resize(3, 2)
	if f.N() != 3 || f.Dim() != 2 || f.Stride() != 2 || len(f.Data()) != 6 {
		t.Fatalf("Resize(3, 2): n=%d d=%d stride=%d len %d", f.N(), f.Dim(), f.Stride(), len(f.Data()))
	}
	copy(f.Data(), []float64{1, 2, 3, 4, 5, 6})
	if f.At(2, 1) != 6 {
		t.Fatalf("row-major fill: %v", f.ToRows())
	}
	// Shrinking, or growing within capacity, keeps the backing array.
	c, p := f.Cap(), &f.Data()[0]
	f.Resize(2, 3)
	if f.N() != 2 || f.Dim() != 3 || f.Cap() != c || &f.Data()[0] != p {
		t.Fatalf("Resize(2, 3) within capacity: n=%d d=%d cap %d vs %d", f.N(), f.Dim(), f.Cap(), c)
	}
	f.Resize(0, 4)
	if f.N() != 0 || f.Dim() != 4 || f.Cap() != c {
		t.Fatalf("Resize(0, 4): n=%d d=%d cap %d vs %d", f.N(), f.Dim(), f.Cap(), c)
	}
	f.Resize(5, 4)
	if f.N() != 5 || f.Cap() < 20 {
		t.Fatalf("Resize(5, 4) past capacity: n=%d cap %d", f.N(), f.Cap())
	}
	// Reset keeps capacity but clears content.
	c = f.Cap()
	f.Reset(3)
	if f.N() != 0 || f.Dim() != 3 || f.Cap() != c {
		t.Fatalf("after Reset: n=%d d=%d cap %d vs %d", f.N(), f.Dim(), f.Cap(), c)
	}
}

func TestPanics(t *testing.T) {
	f := MustFromRows([][]float64{{1, 2}})
	for name, fn := range map[string]func(){
		"At col":       func() { f.At(0, 2) },
		"Set col":      func() { f.Set(0, -1, 0) },
		"SetRow width": func() { f.SetRow(0, []float64{1}) },
		"Append width": func() { f.AppendRow([]float64{1, 2, 3}) },
		"Append view":  func() { f.Slice(0, 1).AppendRow([]float64{1, 2}) },
		"Slice range":  func() { f.Slice(0, 2) },
		"Col range":    func() { f.Col(5, nil) },
		"Resize neg":   func() { new(Frame).Resize(-1, 2) },
		"Resize view":  func() { f.Slice(0, 1).Resize(1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
