package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"strconv"
	"sync"

	"rpcrank/internal/frame"
)

// This file holds the hand-rolled JSON paths of the score and rank
// requests. encoding/json decodes [][]float64 through reflection, one small
// slice allocation per row; at 10k-row batches that is most of the request
// latency. The decoder below handles exactly the documented request shape
// {"rows": [[...], ...]} — strict JSON number grammar, each number scanned
// with an 8-byte look-ahead over its digit runs and converted in the same
// pass (floatparse.go), values written straight into one pooled contiguous
// frame — and reports !ok for anything
// else, in which case the caller re-decodes with encoding/json so every
// error message, unknown field and type mismatch behaves exactly as the
// stdlib path. The encoder is its mirror image for the answers, whose
// payload is almost entirely float and int arrays; it spells every float
// the way encoding/json does, scores in [2⁻²⁰, 1) with an exact integer
// shortest-digit encoder and the rest through strconv, so the fast and the
// fallback answers are byte-identical.
//
// Each row is scored by its own projection (Eq. 22), so a batch splits into
// independent row ranges, and decode and encode split with it. A body of
// at least splitMinBytes is cut into byte ranges of its rows array, one
// more range per splitMinBytes up to the pool's worker count; the workers
// parse the ranges into their rows of the one frame, and after scoring
// encode the same row ranges into per-range buffers that the handler
// writes in order. A smaller body is the same code with one range, run
// inline. A split parse accepts exactly the bodies the one-range parse
// accepts, with bit-identical frames: the cuts fall only after a row's
// closing bracket and its separating comma, and the per-range grammar
// concatenates to the whole-array grammar (see scoreState.decode).

// splitMinBytes is the body size from which a score request decodes and
// encodes on the pool in more than one range. Below it the channel hops and
// worker wake-ups cost more than splitting the parse and the encode saves.
// BenchmarkScoreBodyRanges (GOMAXPROCS=2, 4-value rows with six
// significant digits, 2-vCPU Xeon, 3 alternating runs) puts the crossover
// between 3.4 KB (one range 15–21 µs, two 25–26 µs) and 26.9 KB (151–176 µs
// against 110–133 µs); at 6.7 KB (29–42 against 34–42 µs) and 13.4 KB
// (61–85 against 64–78 µs) the two overlap. 8 KB, inside that band, keeps
// the 100-row, 3.3 KB bodies of small batches on one inline range with
// margin, where a busy server's other requests would also contend for the
// workers.
const splitMinBytes = 8 << 10

// scoreState is one score or rank request's reusable state: the body, the
// decoded frame, the scores, the row ranges with their encoded parts, and
// the barrier of the decode and encode fan-outs (Pool.runRanges), whose
// part i is range i of the stage kind. It is pooled whole (getScoreState),
// so a steady-state request re-uses every buffer and the decode and encode
// tasks allocate nothing.
type scoreState struct {
	barrier
	kind      rangeKind
	body      []byte
	fr        frame.Frame
	scores    []float64
	positions []int // rank answers only; set before encode
	ranges    []rowRange
	head      []byte   // {"model_id":…,"count":…,"scores":[
	parts     [][]byte // the answer: head, range parts, glue
}

// rangeKind says which stage a scoreState's fan-out runs.
type rangeKind uint8

const (
	rangeDecode rangeKind = iota
	rangeEncode
)

// rowRange is one range of a request: bytes [lo, hi) of the body's rows
// array hold rows [row, row+n) of the frame, and scores and positions hold
// those rows' encoded answer.
type rowRange struct {
	lo, hi    int
	row, n    int
	ok        bool
	scores    []byte
	positions []byte
}

var statePool sync.Pool

func getScoreState() *scoreState {
	if st, ok := statePool.Get().(*scoreState); ok {
		return st
	}
	return &scoreState{}
}

// putScoreState repools st, dropping any buffer past the pool caps so one
// huge batch does not stay pinned.
func putScoreState(st *scoreState) {
	if cap(st.body) > poolMaxBuf {
		st.body = nil
	}
	if st.fr.Cap() > poolMaxFrameVals {
		st.fr = frame.Frame{}
	}
	if cap(st.scores) > poolMaxFrameVals {
		st.scores = nil
	}
	all := st.ranges[:cap(st.ranges)]
	for i := range all {
		rg := &all[i]
		if cap(rg.scores) > poolMaxBuf {
			rg.scores = nil
		}
		if cap(rg.positions) > poolMaxBuf {
			rg.positions = nil
		}
	}
	st.positions = nil
	clear(st.parts[:cap(st.parts)])
	st.parts = st.parts[:0]
	statePool.Put(st)
}

// splitCount is the number of ranges a body of size bytes decodes and
// encodes in: one below splitMinBytes, then one more per splitMinBytes,
// at most one per worker.
func (p *Pool) splitCount(size int) int {
	k := size/splitMinBytes + 1
	if p == nil || k < 2 {
		return 1
	}
	return min(k, p.workers)
}

// addRange appends a range of body bytes [lo, hi), re-using the slot's
// encode buffers from an earlier request.
func (st *scoreState) addRange(lo, hi int) {
	if n := len(st.ranges); n < cap(st.ranges) {
		st.ranges = st.ranges[:n+1]
	} else {
		st.ranges = append(st.ranges, rowRange{})
	}
	rg := &st.ranges[len(st.ranges)-1]
	rg.lo, rg.hi, rg.ok = lo, hi, false
}

// oneRange makes all n rows of the frame a single range, for a body the
// stdlib decoder parsed.
func (st *scoreState) oneRange(n int) {
	st.ranges = st.ranges[:0]
	st.addRange(0, 0)
	st.ranges[0].row, st.ranges[0].n = 0, n
}

// decode parses st.body, which must be exactly {"rows": [[numbers...], ...]}
// with every row d wide, into st.fr. The rows array is cut into k byte
// ranges (fewer when it has fewer rows) that p's workers parse into their
// rows of the frame; k == 1 parses inline. ok is false whenever the body is
// not exactly that shape (including any JSON error, an out-of-range number,
// or a row whose width is not d); st.fr's contents are then unspecified and
// the caller must re-decode with encoding/json for the authoritative error.
//
// Why a split parse accepts exactly what one range accepts: a cut falls
// just after a ']', optional whitespace and a ','. In a well-formed body a
// ']' inside the array only ever closes a row, so every cut is a row
// separator and every range parses. Conversely each range must match
// ws row (ws , ws row)* ws — followed by the separating ',' for every range
// but the last — and those pieces concatenate to exactly the array's
// grammar, so a body whose ranges all parse is well-formed. Rows are
// counted by their '[' (numbers contain none), which places each range's
// rows in the frame before any range is parsed.
func (st *scoreState) decode(p *Pool, d, k int) bool {
	b := st.body
	ps := fastParser{b: b}
	ps.ws()
	// The key must be exactly "rows" (no escapes to worry about: anything
	// else fails the literal match and falls back).
	if !ps.eat('{') || !ps.skipWSEat('"') || !ps.lit(`rows"`) || !ps.skipWSEat(':') || !ps.skipWSEat('[') {
		return false
	}
	lo, hi := ps.i, len(b)
	// The document must end in ] ws } ws: strip that from the back, so
	// b[lo:hi] is the array's content.
	for _, c := range [2]byte{'}', ']'} {
		for hi > lo && isSpace(b[hi-1]) {
			hi--
		}
		if hi == lo || b[hi-1] != c {
			return false
		}
		hi--
	}
	st.ranges = st.ranges[:0]
	start := lo
	for i := 1; i < k; i++ {
		cut := rowBoundary(b[:hi], max(start, lo+(hi-lo)*i/k))
		if cut >= hi {
			break
		}
		st.addRange(start, cut)
		start = cut
	}
	st.addRange(start, hi)
	n := 0
	for i := range st.ranges {
		rg := &st.ranges[i]
		rg.row, rg.n = n, bytes.Count(b[rg.lo:rg.hi], openBracket)
		n += rg.n
	}
	if n == 0 {
		st.fr.Reset(d)
		ps.ws() // from lo: the empty array holds whitespace at most
		return ps.i == hi
	}
	// A row is at least '[', d one-digit numbers, d-1 commas and ']', and
	// rows are comma-separated: a count the content cannot hold is
	// malformed, and rejecting it bounds the frame by the body size.
	if n*(2*d+2)-1 > hi-lo {
		return false
	}
	st.fr.Resize(n, d)
	p.runRanges(st, rangeDecode)
	for i := range st.ranges {
		if !st.ranges[i].ok {
			return false
		}
	}
	return true
}

var openBracket = []byte{'['}

// rowBoundary returns the index just after the first ']' ws ',' at or
// after i in b, or len(b) when there is none.
func rowBoundary(b []byte, i int) int {
	for {
		j := bytes.IndexByte(b[i:], ']')
		if j < 0 {
			return len(b)
		}
		i += j + 1
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		if i < len(b) && b[i] == ',' {
			return i + 1
		}
	}
}

// runPart runs the current stage, decode or encode, on range i.
func (st *scoreState) runPart(i int, _ bool) {
	if st.kind == rangeDecode {
		st.decodeRange(i)
	} else {
		st.encodeRange(i)
	}
}

// decodeRange parses range i into its rows of the frame.
func (st *scoreState) decodeRange(i int) {
	rg := &st.ranges[i]
	d := st.fr.Dim()
	vals := st.fr.Data()[rg.row*d : (rg.row+rg.n)*d]
	n, ok := parseRows(st.body[rg.lo:rg.hi], vals, d, i == len(st.ranges)-1)
	rg.ok = ok && n == rg.n
}

// parseRows parses ws row (ws , ws row)* ws from b into dst, d values a
// row, followed by a final ',' unless last, and reports the rows parsed.
// ok is false for anything else, a row not exactly d wide, or more rows
// than dst holds.
func parseRows(b []byte, dst []float64, d int, last bool) (rows int, ok bool) {
	p := fastParser{b: b}
	for {
		if !p.skipWSEat('[') {
			return rows, false
		}
		off := rows * d
		if off+d > len(dst) {
			return rows, false
		}
		p.ws()
		if p.eat(']') {
			if d != 0 {
				return rows, false
			}
		} else {
			for j := 0; ; j++ {
				p.ws()
				v, numOK := p.number()
				if !numOK || j == d {
					return rows, false
				}
				dst[off+j] = v
				p.ws()
				if p.eat(',') {
					continue
				}
				if !p.eat(']') || j != d-1 {
					return rows, false
				}
				break
			}
		}
		rows++
		p.ws()
		if p.i == len(p.b) {
			return rows, last
		}
		if !p.eat(',') {
			return rows, false
		}
		if p.i == len(p.b) {
			return rows, !last
		}
	}
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

type fastParser struct {
	b []byte
	i int
}

func (p *fastParser) ws() {
	for p.i < len(p.b) && isSpace(p.b[p.i]) {
		p.i++
	}
}

func (p *fastParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *fastParser) skipWSEat(c byte) bool {
	p.ws()
	return p.eat(c)
}

func (p *fastParser) lit(s string) bool {
	if p.i+len(s) > len(p.b) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// number scans one value obeying the strict JSON number grammar
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?) and parses it in the
// same pass: the decimal mantissa and exponent accumulate while the grammar
// is validated, and convertDecimal (floatparse.go) finishes them through an
// exact fast path. strconv.ParseFloat alone would be too lenient ("Inf",
// "0x1p2", "1_000"), so the grammar check stays authoritative — rejecting
// here sends the request down the stdlib path for an authoritative error —
// and strconv remains the fallback for every token the fast conversion
// cannot prove correctly rounded.
//
// The common token, a few integer digits and a few fraction digits, is
// scanned with a look-ahead: each digit run is read as one 8-byte word,
// digitRun finds where it ends and digitsValue folds it into the mantissa
// (floatparse.go). Every other token goes to numberSlow, the byte loop,
// from its first byte: one with an exponent, a digit run of 8 or more, or
// a run whose word would reach past the end of b. Both give the same
// value, end index and ok for every input.
func (p *fastParser) number() (float64, bool) {
	v, i, ok := scanNumber(p.b, p.i)
	p.i = i
	return v, ok
}

// scanNumber is number on b from index start; it returns the value, the
// index just past the token, and ok.
func scanNumber(b []byte, start int) (float64, int, bool) {
	i := start
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i+8 > len(b) {
		return numberSlow(b, start)
	}
	var mant uint64
	if c := b[i]; c == '0' {
		i++
	} else if c-'1' < 9 {
		x := binary.LittleEndian.Uint64(b[i:])
		n := digitRun(x)
		if n == 8 {
			return numberSlow(b, start)
		}
		mant = digitsValue(x, n)
		i += n
	} else {
		return numberSlow(b, start)
	}
	exp10 := 0
	if b[i] == '.' {
		i++
		if i+8 > len(b) {
			return numberSlow(b, start)
		}
		x := binary.LittleEndian.Uint64(b[i:])
		n := digitRun(x)
		if n == 0 || n == 8 {
			return numberSlow(b, start)
		}
		mant = mant*pow10u[n] + digitsValue(x, n)
		exp10 = -n
		i += n
	}
	if b[i]|0x20 == 'e' {
		return numberSlow(b, start)
	}
	// At most 14 digits and exp10 ≥ −7: convertDecimal's Clinger route.
	v, ok := convertDecimal(mant, exp10, neg)
	if !ok {
		return numberSlow(b, start)
	}
	return v, i, true
}

// numberSlow is number's byte loop, for every token scanNumber does not
// take.
func numberSlow(b []byte, start int) (float64, int, bool) {
	i := start
	neg := false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	var mant uint64
	digits := 0 // significant digits folded into mant (≤ 19)
	exp10 := 0  // value = mant · 10^exp10
	exact := true
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			if digits < 19 {
				mant = mant*10 + uint64(b[i]-'0')
				digits++
			} else {
				// A dropped trailing integer digit scales the value by ten
				// (exactly, when the digit is zero).
				exp10++
				exact = exact && b[i] == '0'
			}
			i++
		}
	default:
		return 0, i, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, i, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			switch {
			case mant == 0 && b[i] == '0':
				// Leading fractional zeros shift the exponent without
				// spending mantissa capacity (0.00001234…).
				exp10--
			case digits < 19:
				mant = mant*10 + uint64(b[i]-'0')
				digits++
				exp10--
			default:
				// Dropped trailing fractional digits only matter when
				// nonzero.
				exact = exact && b[i] == '0'
			}
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, i, false
		}
		ev := 0
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			if ev < 1<<20 { // saturate; convertDecimal range-checks anyway
				ev = ev*10 + int(b[i]-'0')
			}
			i++
		}
		if eneg {
			exp10 -= ev
		} else {
			exp10 += ev
		}
	}
	if exact {
		if v, ok := convertDecimal(mant, exp10, neg); ok {
			return v, i, true
		}
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, i, false
	}
	return v, i, true
}

// The fixed glue of the encoded answers.
var (
	positionsOpen = []byte(`],"positions":[`)
	answerClose   = []byte("]}\n") // json.Encoder ends documents with a newline
)

// encode builds the /score answer for model id from st.scores, or the /rank
// answer when st.positions is set, as parts to write in order: the head,
// each range's scores, and for /rank each range's positions, with their
// glue. The ranges are those decode (or oneRange) left, encoded by p's
// workers when there are several. ok is false when the answer needs
// stdlib escaping or encoding (a model id with exotic bytes, a non-finite
// score) — callers fall back to writeJSON then.
func (st *scoreState) encode(p *Pool, id string) (parts [][]byte, ok bool) {
	if !plainJSONString(id) {
		return nil, false
	}
	p.runRanges(st, rangeEncode)
	h := append(st.head[:0], `{"model_id":"`...)
	h = append(h, id...)
	h = append(h, `","count":`...)
	h = strconv.AppendInt(h, int64(len(st.scores)), 10)
	st.head = append(h, `,"scores":[`...)
	st.parts = append(st.parts[:0], st.head)
	for i := range st.ranges {
		if !st.ranges[i].ok {
			return nil, false
		}
		st.parts = append(st.parts, st.ranges[i].scores)
	}
	if st.positions != nil {
		st.parts = append(st.parts, positionsOpen)
		for i := range st.ranges {
			st.parts = append(st.parts, st.ranges[i].positions)
		}
	}
	st.parts = append(st.parts, answerClose)
	return st.parts, true
}

// encodeRange encodes range i's scores, and positions when set, each
// element after the batch's first preceded by a comma.
func (st *scoreState) encodeRange(i int) {
	rg := &st.ranges[i]
	rg.ok = false
	b := rg.scores[:0]
	for j, v := range st.scores[rg.row : rg.row+rg.n] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		if rg.row+j > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, v)
	}
	rg.scores = b
	if st.positions != nil {
		b = rg.positions[:0]
		for j, v := range st.positions[rg.row : rg.row+rg.n] {
			if rg.row+j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		rg.positions = b
	}
	rg.ok = true
}

// appendFloat appends v spelled as encoding/json spells a float64: the
// shortest 'f' form for 1e-6 ≤ |v| < 1e21, otherwise the shortest 'e' form
// with a one-digit negative exponent's leading zero stripped (1e-07 →
// 1e-7). v must be finite. The 'f' forms of [2⁻²⁰, 1), every served score
// but 0 and 1, come from appendUnitFloat (floatparse.go).
func appendFloat(b []byte, v float64) []byte {
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		b = strconv.AppendFloat(b, v, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	if u := math.Float64bits(v); unitFloat(u) {
		return appendUnitFloat(b, u)
	}
	return strconv.AppendFloat(b, v, 'f', -1, 64)
}

// plainJSONString reports whether s encodes as itself inside quotes: no
// escapes, no control bytes, no non-ASCII (registry ids always qualify).
func plainJSONString(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}
