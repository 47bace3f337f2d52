// Package frame provides the contiguous data plane of the RPC pipeline: an
// n×d matrix of float64 observations stored row-major in a single backing
// array. Every tier — dataset tables, normalisation, the alternating fit,
// batch scoring, the HTTP server's request decoder — moves batches through a
// Frame instead of a [][]float64, so a 10k-row batch is one allocation and
// one cache-friendly block rather than 10k separately-allocated,
// pointer-chased slices.
//
// A Frame carries an explicit row stride so sub-frames (Slice) can view a
// row range of a parent without copying. Row returns a zero-copy view;
// FromRows/ToRows are the conversion shims that let callers still holding
// [][]float64 migrate incrementally. Resize sizes a reused frame for a
// decoder that counts its rows first and then writes them in place, range
// by range, through Data.
//
// The package is dependency-free (standard library only) and makes no
// attempt at general linear algebra — that is internal/mat's job. A Frame
// is a batch of observations, not an operand.
package frame

import "fmt"

// Frame is an n×d row-major matrix in one contiguous backing array.
// The zero value is an empty 0×0 frame ready for Reset.
type Frame struct {
	data   []float64
	n, d   int
	stride int  // distance between row starts; == d for packed frames
	view   bool // Slice views must not grow: they share a parent's backing
}

// New returns a zeroed n×d packed frame.
func New(n, d int) *Frame {
	if n < 0 || d < 0 {
		panic(fmt.Sprintf("frame: New(%d, %d): negative dimension", n, d))
	}
	return &Frame{data: make([]float64, n*d), n: n, d: d, stride: d}
}

// WithCapacity returns an empty 0×d packed frame whose backing array can
// hold capRows rows before growing. Use with AppendRow when the final row
// count is known approximately.
func WithCapacity(d, capRows int) *Frame {
	if d < 0 || capRows < 0 {
		panic(fmt.Sprintf("frame: WithCapacity(%d, %d): negative dimension", d, capRows))
	}
	return &Frame{data: make([]float64, 0, capRows*d), d: d, stride: d}
}

// FromRows copies a rectangular [][]float64 into a new packed frame. It is
// the migration shim from slice-of-slice call sites; the rows are copied,
// never aliased. Ragged input is an error; an empty input yields a 0×0
// frame.
func FromRows(rows [][]float64) (*Frame, error) {
	if len(rows) == 0 {
		return &Frame{}, nil
	}
	d := len(rows[0])
	f := &Frame{data: make([]float64, 0, len(rows)*d), d: d, stride: d}
	for i, row := range rows {
		if len(row) != d {
			return nil, fmt.Errorf("frame: row %d has %d values, want %d", i, len(row), d)
		}
		f.data = append(f.data, row...)
	}
	f.n = len(rows)
	return f, nil
}

// MustFromRows is FromRows panicking on ragged input, for literals.
func MustFromRows(rows [][]float64) *Frame {
	f, err := FromRows(rows)
	if err != nil {
		panic(err)
	}
	return f
}

// N returns the number of rows. A nil frame has none — the accessors a
// "no data retained" state flows through (N, Dim, ToRows) accept a nil
// receiver the way a nil [][]float64 accepts len/range, so diagnostics on
// models that dropped their training data degrade instead of panicking.
func (f *Frame) N() int {
	if f == nil {
		return 0
	}
	return f.n
}

// Dim returns the number of columns (0 for a nil frame).
func (f *Frame) Dim() int {
	if f == nil {
		return 0
	}
	return f.d
}

// Stride returns the distance between consecutive row starts in the backing
// array. It equals Dim for packed frames.
func (f *Frame) Stride() int { return f.stride }

// Row returns a zero-copy view of row i. The view shares the backing array:
// writes through it are visible to the frame (and to any parent it was
// sliced from). Its capacity is clipped so an append cannot clobber the
// next row. The row index is checked explicitly: the backing array's
// capacity can exceed N·stride (pooled frames, AppendRow growth), so
// relying on the slice bounds alone could silently hand back stale data
// past the last row.
func (f *Frame) Row(i int) []float64 {
	if i < 0 || i >= f.n {
		panic(fmt.Sprintf("frame: Row(%d): row out of range [0,%d)", i, f.n))
	}
	off := i * f.stride
	return f.data[off : off+f.d : off+f.d]
}

// At returns the value at row i, column j.
func (f *Frame) At(i, j int) float64 {
	if i < 0 || i >= f.n || j < 0 || j >= f.d {
		panic(fmt.Sprintf("frame: At(%d, %d): out of range %d×%d", i, j, f.n, f.d))
	}
	return f.data[i*f.stride+j]
}

// Set writes the value at row i, column j.
func (f *Frame) Set(i, j int, v float64) {
	if i < 0 || i >= f.n || j < 0 || j >= f.d {
		panic(fmt.Sprintf("frame: Set(%d, %d): out of range %d×%d", i, j, f.n, f.d))
	}
	f.data[i*f.stride+j] = v
}

// SetRow copies vals into row i.
func (f *Frame) SetRow(i int, vals []float64) {
	if len(vals) != f.d {
		panic(fmt.Sprintf("frame: SetRow(%d): %d values, want %d", i, len(vals), f.d))
	}
	copy(f.Row(i), vals)
}

// Col gathers column j into dst (grown or allocated as needed) and returns
// it with length N.
func (f *Frame) Col(j int, dst []float64) []float64 {
	if j < 0 || j >= f.d {
		panic(fmt.Sprintf("frame: Col(%d): column out of range [0,%d)", j, f.d))
	}
	if cap(dst) >= f.n {
		dst = dst[:f.n]
	} else {
		dst = make([]float64, f.n)
	}
	for i := 0; i < f.n; i++ {
		dst[i] = f.data[i*f.stride+j]
	}
	return dst
}

// AppendRow appends one row, growing the backing array. Only packed frames
// that own their full backing (not Slice views) may grow.
func (f *Frame) AppendRow(vals []float64) {
	if f.d == 0 && f.n == 0 {
		f.d, f.stride = len(vals), len(vals)
	}
	if len(vals) != f.d {
		panic(fmt.Sprintf("frame: AppendRow: %d values, want %d", len(vals), f.d))
	}
	if f.view || f.stride != f.d || len(f.data) != f.n*f.d {
		panic("frame: AppendRow on a view")
	}
	f.data = append(f.data, vals...)
	f.n++
}

// Slice returns a zero-copy view of rows [lo, hi). The view shares the
// backing array with f; it cannot grow.
func (f *Frame) Slice(lo, hi int) *Frame {
	if lo < 0 || hi < lo || hi > f.n {
		panic(fmt.Sprintf("frame: Slice(%d, %d) of %d rows", lo, hi, f.n))
	}
	if lo == hi {
		return &Frame{d: f.d, stride: f.d, view: true}
	}
	start := lo * f.stride
	end := (hi-1)*f.stride + f.d
	return &Frame{data: f.data[start:end], n: hi - lo, d: f.d, stride: f.stride, view: true}
}

// Gather returns a new packed frame holding the rows idx, in order, copied
// through the single backing array. The result is fully detached from f.
func (f *Frame) Gather(idx []int) *Frame {
	out := &Frame{data: make([]float64, 0, len(idx)*f.d), n: len(idx), d: f.d, stride: f.d}
	for _, i := range idx {
		out.data = append(out.data, f.Row(i)...)
	}
	return out
}

// SelectCols returns a new packed frame keeping the columns idx, in order.
// The result is fully detached from f.
func (f *Frame) SelectCols(idx []int) *Frame {
	for _, j := range idx {
		if j < 0 || j >= f.d {
			panic(fmt.Sprintf("frame: SelectCols: column %d out of range [0,%d)", j, f.d))
		}
	}
	out := &Frame{data: make([]float64, f.n*len(idx)), n: f.n, d: len(idx), stride: len(idx)}
	for i := 0; i < f.n; i++ {
		src := f.data[i*f.stride:]
		dst := out.data[i*out.stride:]
		for k, j := range idx {
			dst[k] = src[j]
		}
	}
	return out
}

// DropCol returns a new packed frame without column j, detached from f.
func (f *Frame) DropCol(j int) *Frame {
	idx := make([]int, 0, f.d-1)
	for c := 0; c < f.d; c++ {
		if c != j {
			idx = append(idx, c)
		}
	}
	return f.SelectCols(idx)
}

// Clone returns a packed deep copy of f (re-packing a strided view).
func (f *Frame) Clone() *Frame {
	out := &Frame{data: make([]float64, f.n*f.d), n: f.n, d: f.d, stride: f.d}
	if f.stride == f.d {
		copy(out.data, f.data)
		return out
	}
	for i := 0; i < f.n; i++ {
		copy(out.data[i*f.d:(i+1)*f.d], f.Row(i))
	}
	return out
}

// ToRows returns one zero-copy row view per row — the shim for call sites
// still typed [][]float64. The views share f's backing array; only the
// slice-of-headers is allocated. A nil frame yields nil.
func (f *Frame) ToRows() [][]float64 {
	if f == nil {
		return nil
	}
	rows := make([][]float64, f.n)
	for i := range rows {
		rows[i] = f.Row(i)
	}
	return rows
}

// Data returns the backing array of a packed frame (length N·Dim, row i at
// [i·Dim, (i+1)·Dim)). It panics on strided views, where the backing
// interleaves rows with foreign data.
func (f *Frame) Data() []float64 {
	if f.stride != f.d {
		panic("frame: Data on a strided view")
	}
	return f.data[:f.n*f.d]
}

// Cap returns the value capacity of the backing array, for pool size caps.
func (f *Frame) Cap() int { return cap(f.data) }

// Reset empties the frame to 0×d, keeping the backing capacity.
func (f *Frame) Reset(d int) {
	if d < 0 {
		panic(fmt.Sprintf("frame: Reset(%d): negative dimension", d))
	}
	f.data = f.data[:0]
	f.n, f.d, f.stride = 0, d, d
}

// Resize makes f an n×d packed frame, reusing the backing array when it
// holds n·d values and allocating a fresh one otherwise. The values are
// unspecified: Resize exists for decoders that overwrite every cell, and
// it does not pay to zero or copy them.
func (f *Frame) Resize(n, d int) {
	if n < 0 || d < 0 {
		panic(fmt.Sprintf("frame: Resize(%d, %d): negative dimension", n, d))
	}
	if f.view {
		panic("frame: Resize on a view")
	}
	if cap(f.data) < n*d {
		f.data = make([]float64, n*d)
	}
	f.data = f.data[:n*d]
	f.n, f.d, f.stride = n, d, d
}
