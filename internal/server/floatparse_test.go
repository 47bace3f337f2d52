package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// parseOne runs one token through the fused fast-path parser and asserts
// the whole token was consumed.
func parseOne(t *testing.T, tok string) (float64, bool) {
	t.Helper()
	p := fastParser{b: []byte(tok)}
	v, ok := p.number()
	if ok && p.i != len(tok) {
		t.Fatalf("number(%q) consumed %d of %d bytes", tok, p.i, len(tok))
	}
	return v, ok
}

// checkAgainstStrconv pins the fast parser to strconv.ParseFloat bit for
// bit: same value (including the sign of zero) when strconv succeeds, and
// parse failure exactly when strconv errors (the fallback path the server
// uses to hand the request to encoding/json).
func checkAgainstStrconv(t *testing.T, tok string) {
	t.Helper()
	want, err := strconv.ParseFloat(tok, 64)
	got, ok := parseOne(t, tok)
	if err != nil {
		if ok {
			t.Fatalf("number(%q) = %v, want failure (strconv: %v)", tok, got, err)
		}
		return
	}
	if !ok {
		t.Fatalf("number(%q) failed, strconv gives %v", tok, want)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("number(%q) = %x (%.17g), strconv gives %x (%.17g)",
			tok, math.Float64bits(got), got, math.Float64bits(want), want)
	}
}

// TestNumberMatchesStrconvHardCases covers the classic correctly-rounded
// parsing traps: halfway values, subnormal boundaries, overflow edges,
// long-digit forms, and every shape of zero.
func TestNumberMatchesStrconvHardCases(t *testing.T) {
	cases := []string{
		"0", "-0", "0.0", "-0.0", "0e0", "0e999999", "0e-999999",
		"1", "-1", "12345678901234567890123456789", "0.5", "2.5", "1.5",
		"1e23", "-1e23", "8.442911973260991e18", "9007199254740993",
		"9007199254740992", "4503599627370496.5",
		"2.2250738585072011e-308", // the Java/PHP hang number: subnormal edge
		"2.2250738585072014e-308", // smallest normal
		"4.9406564584124654e-324", // smallest subnormal
		"1.7976931348623157e308",  // largest finite
		"1.7976931348623159e308",  // overflows
		"1e309", "-1e309", "1e-323", "1e-324", "1e-325", "1e-400",
		"5e-324", "3e-324",
		"1.00000000000000011102230246251565404236316680908203125",
		"0.000000000000000000000000000000000000000000000000000001",
		"100000000000000000000000000000000000000000000000000000.0",
		"7.2057594037927933e16", "0.3", "0.1", "0.2", "0.30000000000000004",
		"123456789.123456789e-250", "123456789.123456789e250",
		"1e348", "1e-348", "1e347", "1e-347",
		"17976931348623157" + "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000", // 308+ digit integer
	}
	for _, tok := range cases {
		checkAgainstStrconv(t, tok)
	}
}

// TestNumberMatchesStrconvRoundTrip hammers the fused parser with shortest
// decimal forms of random float64 bit patterns — the exact shape
// encoding/json emits and the score batch decodes — plus fixed-precision
// renderings with more digits than the mantissa can hold.
func TestNumberMatchesStrconvRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	for i := 0; i < n; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		shortest := strconv.FormatFloat(f, 'g', -1, 64)
		// FormatFloat emits "1e+05"-style exponents, valid JSON numbers.
		checkAgainstStrconv(t, shortest)
		got, ok := parseOne(t, shortest)
		if !ok || math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("round trip of %x via %q gave %x", math.Float64bits(f), shortest, math.Float64bits(got))
		}
		if i%4 == 0 {
			checkAgainstStrconv(t, strconv.FormatFloat(f, 'e', 25, 64))
		}
	}
}

// TestNumberMatchesStrconvRandomTokens drives random syntactic shapes —
// digit counts past the uint64 window, huge exponents, fractional zeros —
// through the differential check.
func TestNumberMatchesStrconvRandomTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		if b[0] == '0' && n > 1 {
			b[0] = '1' + byte(rng.Intn(9))
		}
		return string(b)
	}
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	for i := 0; i < n; i++ {
		tok := ""
		if rng.Intn(2) == 0 {
			tok += "-"
		}
		switch rng.Intn(4) {
		case 0:
			tok += "0"
		default:
			tok += digits(1 + rng.Intn(25))
		}
		if rng.Intn(2) == 0 {
			frac := digits(1 + rng.Intn(25))
			if rng.Intn(3) == 0 {
				frac = "000000000000000000000" + frac // leading fractional zeros
			}
			tok += "." + frac
		}
		if rng.Intn(2) == 0 {
			tok += fmt.Sprintf("e%+d", rng.Intn(700)-350)
		}
		checkAgainstStrconv(t, tok)
	}
}

// TestElTableNormalised asserts the init-built Eisel–Lemire table invariant
// the conversion relies on: every entry is a 128-bit normalised significand
// whose hi word has the top bit set, and the stored binary exponent matches
// ⌊log₂ 10^q⌋ for a few spot values.
func TestElTableNormalised(t *testing.T) {
	for q := elMinExp10; q <= elMaxExp10; q++ {
		hi := elPow10[q-elMinExp10][0]
		if hi>>63 != 1 {
			t.Fatalf("table entry for 10^%d not normalised: hi=%x", q, hi)
		}
	}
	spots := map[int]int32{0: 0, 1: 3, 2: 6, -1: -4, -2: -7, 10: 33, -10: -34}
	for q, want := range spots {
		if got := elExp2[q-elMinExp10]; got != want {
			t.Fatalf("elExp2[10^%d] = %d, want %d", q, got, want)
		}
	}
}

// BenchmarkParseNumber measures the fused number path on tokens spelled as
// a score batch spells them, with six significant digits (as the
// repository benchmark's clients and BenchmarkParseRows write rows). Each
// token is followed by what follows it in a served row, a comma and the
// next number, so the look-ahead has the bytes it reads in a body; a token
// with nothing after it would only ever time numberSlow.
func BenchmarkParseNumber(b *testing.B) {
	const n = 997
	spell := func(i int) string { return strconv.FormatFloat(10*float64(i%n)/(n-1), 'g', 6, 64) }
	toks := make([][]byte, n)
	ends := make([]int, n)
	for i := range toks {
		toks[i] = []byte(spell(i) + "," + spell(i+1))
		ends[i] = len(spell(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % n
		p := fastParser{b: toks[k]}
		if _, ok := p.number(); !ok || p.i != ends[k] {
			b.Fatal("parse failed")
		}
	}
}

// numberOracle is the byte loop number was before the look-ahead scan, kept
// verbatim as the decoder's oracle: number must return the same value, end
// index and ok on every input.
func (p *fastParser) numberOracle() (float64, bool) {
	start := p.i
	neg := false
	if p.i < len(p.b) && p.b[p.i] == '-' {
		neg = true
		p.i++
	}
	var mant uint64
	digits := 0 // significant digits folded into mant (≤ 19)
	exp10 := 0  // value = mant · 10^exp10
	exact := true
	switch {
	case p.i < len(p.b) && p.b[p.i] == '0':
		p.i++
	case p.i < len(p.b) && p.b[p.i] >= '1' && p.b[p.i] <= '9':
		for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
			if digits < 19 {
				mant = mant*10 + uint64(p.b[p.i]-'0')
				digits++
			} else {
				// A dropped trailing integer digit scales the value by ten
				// (exactly, when the digit is zero).
				exp10++
				exact = exact && p.b[p.i] == '0'
			}
			p.i++
		}
	default:
		return 0, false
	}
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if p.i >= len(p.b) || p.b[p.i] < '0' || p.b[p.i] > '9' {
			return 0, false
		}
		for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
			switch {
			case mant == 0 && p.b[p.i] == '0':
				// Leading fractional zeros shift the exponent without
				// spending mantissa capacity (0.00001234…).
				exp10--
			case digits < 19:
				mant = mant*10 + uint64(p.b[p.i]-'0')
				digits++
				exp10--
			default:
				// Dropped trailing fractional digits only matter when
				// nonzero.
				exact = exact && p.b[p.i] == '0'
			}
			p.i++
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		eneg := false
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			eneg = p.b[p.i] == '-'
			p.i++
		}
		if p.i >= len(p.b) || p.b[p.i] < '0' || p.b[p.i] > '9' {
			return 0, false
		}
		ev := 0
		for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
			if ev < 1<<20 { // saturate; convertDecimal range-checks anyway
				ev = ev*10 + int(p.b[p.i]-'0')
			}
			p.i++
		}
		if eneg {
			exp10 -= ev
		} else {
			exp10 += ev
		}
	}
	if exact {
		if v, ok := convertDecimal(mant, exp10, neg); ok {
			return v, true
		}
	}
	v, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// checkAgainstOracle runs number and numberOracle on b from 0 and compares
// value bits, end index and ok.
func checkAgainstOracle(t *testing.T, b []byte) {
	t.Helper()
	p, o := fastParser{b: b}, fastParser{b: b}
	v, ok := p.number()
	w, wok := o.numberOracle()
	if ok != wok || p.i != o.i || math.Float64bits(v) != math.Float64bits(w) {
		t.Fatalf("number(%q) = %v, end %d, ok %v; byte loop %v, end %d, ok %v", b, v, p.i, ok, w, o.i, wok)
	}
}

// digitRunTokens returns JSON numbers with digit runs of 1–20 on each side
// of the point (or none after it), with and without an exponent, of either
// sign.
func digitRunTokens(rng *rand.Rand) []string {
	run := func(n int, lead bool) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		if lead && b[0] == '0' {
			b[0] = '1' + byte(rng.Intn(9))
		}
		return string(b)
	}
	var toks []string
	for a := 0; a <= 20; a++ {
		for f := 0; f <= 20; f++ {
			for _, exp := range []string{"", "e-5", "E+12", "e0"} {
				for _, sign := range []string{"", "-"} {
					tok := "0"
					if a > 0 {
						tok = run(a, true)
					}
					if f > 0 {
						tok += "." + run(f, false)
					}
					toks = append(toks, sign+tok+exp)
				}
			}
		}
	}
	return toks
}

// TestNumberMatchesByteLoop runs the digit-run tokens and malformed ones,
// at every distance 0–9 from the end of the bytes, through number, the
// byte loop and strconv.
func TestNumberMatchesByteLoop(t *testing.T) {
	toks := append(digitRunTokens(rand.New(rand.NewSource(30))),
		"-", "+1", ".5", "1.", "1.e5", "01", "00.5", "-0", "-0.0",
		"1e", "1e+", "0x10", "1.5.5", "12345678", "1234567.1234567", "0.00000001")
	// What follows a token: JSON separators, and the digit mask's edges
	// ('/' and ':' border the digits, 0x80 and 0xFF have the top bit set)
	// closed by a ']' so that a run read past them would end in range.
	tails := []string{"]", ",", " ", "],[1,", "e", ".", "0", "/]", ":]", "\x80]", "\xff]"}
	for _, tok := range toks {
		want, err := strconv.ParseFloat(tok, 64)
		for _, tail := range tails {
			for dist := 0; dist <= 9; dist++ {
				b := []byte(tok + strings.Repeat(tail, 9)[:dist])
				checkAgainstOracle(t, b)
				p := fastParser{b: b}
				v, ok := p.number()
				if ok && p.i == len(tok) && (err != nil || math.Float64bits(v) != math.Float64bits(want)) {
					t.Fatalf("number(%q) = %v, strconv %v (%v)", b, v, want, err)
				}
			}
		}
	}
}

// TestParseRowsMatchesByteLoop decodes the digit-run tokens as bodies of
// 3-value rows, in one range and in split ranges, each number followed by
// 0–9 spaces so that it ends at every distance from its range's end, and
// checks every cell against the byte loop and strconv.
func TestParseRowsMatchesByteLoop(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	rng := rand.New(rand.NewSource(31))
	toks := digitRunTokens(rng)
	rng.Shuffle(len(toks), func(i, j int) { toks[i], toks[j] = toks[j], toks[i] })
	const d = 3
	for len(toks) >= d {
		rows := min(1+rng.Intn(60), len(toks)/d)
		var body bytes.Buffer
		var want []float64
		body.WriteString(`{"rows":[`)
		for i := 0; i < rows; i++ {
			if i > 0 {
				body.WriteByte(',')
			}
			body.WriteByte('[')
			for j := 0; j < d; j++ {
				if j > 0 {
					body.WriteByte(',')
				}
				tok := toks[0]
				toks = toks[1:]
				o := fastParser{b: []byte(tok)}
				v, ok := o.numberOracle()
				sv, err := strconv.ParseFloat(tok, 64)
				if !ok || err != nil || math.Float64bits(v) != math.Float64bits(sv) {
					t.Fatalf("token %q: byte loop %v/%v, strconv %v/%v", tok, v, ok, sv, err)
				}
				want = append(want, v)
				body.WriteString(tok + strings.Repeat(" ", rng.Intn(10)))
			}
			body.WriteByte(']')
		}
		body.WriteString("]}")
		for k := 1; k <= 4; k++ {
			st, ok := decodeRows(p, body.Bytes(), d, k)
			if !ok {
				t.Fatalf("%d ranges declined %s", k, body.Bytes())
			}
			got := st.fr.Data()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%d ranges, cell %d: %v, want %v in %s", k, i, got[i], want[i], body.Bytes())
				}
			}
		}
	}
}

// checkUnitFloat asserts that appendUnitFloat spells u's float as
// strconv's shortest 'f' form and appendFloat as json.Marshal.
func checkUnitFloat(t *testing.T, u uint64) {
	t.Helper()
	v := math.Float64frombits(u)
	if !unitFloat(u) {
		t.Fatalf("%v (%#x) is outside the integer encoder's range", v, u)
	}
	if got, want := appendUnitFloat(nil, u), strconv.AppendFloat(nil, v, 'f', -1, 64); !bytes.Equal(got, want) {
		t.Fatalf("appendUnitFloat(%#x) = %s, strconv %s", u, got, want)
	}
	checkAppendFloat(t, v)
}

// checkAppendFloat asserts that appendFloat spells v as json.Marshal does.
func checkAppendFloat(t *testing.T, v float64) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendFloat(nil, v); !bytes.Equal(got, want) {
		t.Fatalf("appendFloat(%v) = %s, json.Marshal %s", v, got, want)
	}
}

// TestAppendUnitFloatMatchesStrconv runs every binary exponent of the
// integer encoder with the extreme and 50k random mantissas each, the short
// dyadics k/2^j, and the neighbours of the decimal powers and of ½.
func TestAppendUnitFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 50_000
	if testing.Short() {
		n = 5_000
	}
	for e := -20; e <= -1; e++ {
		for k := 0; k < n+3; k++ {
			frac := rng.Uint64() & (1<<52 - 1)
			switch k {
			case 0:
				frac = 0
			case 1:
				frac = 1
			case 2:
				frac = 1<<52 - 1
			}
			checkUnitFloat(t, uint64(e+1023)<<52|frac|rng.Uint64()&(1<<63))
		}
	}
	// Dyadics k/2^j: every odd k < 2^j up to j = 12; past that, 2048
	// random odd k, whose 13–40 decimal places put exact ties (…5000) in
	// the digits the encoder trims and rounds.
	for j := 1; j <= 40; j++ {
		for i := 0; i < 1<<min(j-1, 11); i++ {
			k := uint64(2*i + 1)
			if j > 12 {
				k = uint64(rng.Int63n(1<<j)) | 1
			}
			if v := float64(k) / float64(uint64(1)<<j); v >= 1.0/(1<<20) && v < 1 {
				checkUnitFloat(t, math.Float64bits(v))
			}
		}
	}
	for _, base := range []float64{0.5, 0.1, 0.01, 1e-3, 1e-4, 1e-5, 1e-6} {
		for _, dir := range []float64{0, 1} {
			v := base
			for k := 0; k < 200; k++ {
				checkUnitFloat(t, math.Float64bits(v))
				v = math.Nextafter(v, dir)
			}
		}
	}
	for _, v := range []float64{0, 1, math.Copysign(0, -1), -1, math.Nextafter(1e-6, 0), 1 - 0x1p-53} {
		checkAppendFloat(t, v)
	}
}

// BenchmarkParseRows times the decode of the rows a score body carries:
// 10k rows of 4 values with six significant digits, the shape the
// repository benchmark's clients send.
func BenchmarkParseRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const rows, d = 10_000, 4
	var body []byte
	for i := 0; i < rows; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, '[')
		for j := 0; j < d; j++ {
			if j > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendFloat(body, 100*rng.Float64(), 'g', 6, 64)
		}
		body = append(body, ']')
	}
	dst := make([]float64, rows*d)
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, ok := parseRows(body, dst, d, true); !ok || n != rows {
			b.Fatal("parse failed")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*d), "ns/number")
}

// BenchmarkAppendScores times the encode of 10k scores in [0, 1).
func BenchmarkAppendScores(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 10_000)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	buf := make([]byte, 0, 20*len(scores))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, v := range scores {
			buf = append(appendFloat(buf, v), ',')
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(scores)), "ns/score")
}
