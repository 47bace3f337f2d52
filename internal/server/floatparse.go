package server

import (
	"math"
	"math/big"
	"math/bits"
)

// The number codec of the JSON fast path, both directions.
//
// Decoding. The grammar scan in fastParser.number already walks every byte
// of a number token; handing the token to strconv.ParseFloat afterwards
// would walk them all again. Instead the scan accumulates the decimal
// mantissa and exponent as it validates, and convertDecimal turns them into
// a float64 by one of two exact routes:
//
//   - the Clinger fast path: mantissa ≤ 2⁵³ and |exp10| ≤ 22 means
//     float64(mant)·10^exp10 (or /10^-exp10) is a single correctly-rounded
//     IEEE operation — bit-identical to strconv by construction;
//   - the Eisel–Lemire path: multiply the normalised mantissa by a 128-bit
//     truncation of 10^exp10 and round, which is provably correctly rounded
//     whenever its ambiguity checks pass. The power table is generated at
//     init from exact big-integer arithmetic, with the binary exponent
//     stored alongside each entry instead of re-derived from a log₂
//     approximation.
//
// Anything outside both routes — 20+ significant digits, exponents beyond
// the table, subnormal or overflowing results, an ambiguous rounding — falls
// back to strconv.ParseFloat on the original token, so every value and
// every error is exactly what strconv gives. The scan reads the digit runs
// of the common token eight bytes at a time (digitRun, digitsValue: a SWAR
// digit mask and three multiplies) and keeps a byte loop for the rest (see
// fastParser.number). The differential tests in floatparse_test.go pin
// the values to strconv, over round-tripped random floats and the classic
// hard-rounding cases, and the value, end index and ok of every token to
// the byte loop the look-ahead scan replaced.
//
// Encoding. A served score is a projection index in [0, 1], so almost
// every answer float has a binary exponent in −20 … −1. appendUnitFloat
// spells those with strconv's shortest-digit algorithm on exact integers
// (one 64×64→128-bit product), the answer encoder's appendFloat sends every
// other value to strconv, and the tests and FuzzAppendFloat pin the bytes
// to json.Marshal's.

// elMinExp10/elMaxExp10 bound the decimal exponents the Eisel–Lemire table
// covers. The range spans every finite float64 (10^-348 underflows to zero
// even with a 19-digit mantissa; 10^309 overflows), so within it the only
// fallbacks are ambiguity and range edges.
const (
	elMinExp10 = -348
	elMaxExp10 = 347
)

// elPow10 holds, for each q in [elMinExp10, elMaxExp10], the 128-bit
// normalised significand of 10^q (hi word first, value in [2¹²⁷, 2¹²⁸)):
// truncated for q ≥ 0, rounded up for q < 0, the convention whose table
// error stays below one unit and in the direction the ambiguity checks
// account for. elExp2 holds ⌊log₂ 10^q⌋ exactly.
var (
	elPow10 [elMaxExp10 - elMinExp10 + 1][2]uint64
	elExp2  [elMaxExp10 - elMinExp10 + 1]int32
)

func init() {
	ten := big.NewInt(10)
	one := big.NewInt(1)
	for q := elMinExp10; q <= elMaxExp10; q++ {
		var w big.Int
		var e2 int
		if q >= 0 {
			w.Exp(ten, big.NewInt(int64(q)), nil)
			bl := w.BitLen()
			e2 = bl - 1
			if bl <= 128 {
				w.Lsh(&w, uint(128-bl)) // exact
			} else {
				w.Rsh(&w, uint(bl-128)) // truncated
			}
		} else {
			var den big.Int
			den.Exp(ten, big.NewInt(int64(-q)), nil)
			b := den.BitLen()
			// 10^q ∈ (2^-b, 2^-(b-1)) strictly (den has a factor 5, so it is
			// never a power of two), hence ⌊log₂ 10^q⌋ = -b.
			e2 = -b
			// W = ⌈2^(127+b) / den⌉.
			w.Lsh(one, uint(127+b))
			var rem big.Int
			w.QuoRem(&w, &den, &rem)
			if rem.Sign() != 0 {
				w.Add(&w, one)
			}
		}
		if w.BitLen() != 128 {
			// Cannot happen for this range (checked exhaustively by test);
			// guard so a regression fails loudly at startup, not silently at
			// parse time.
			panic("server: Eisel-Lemire power table entry is not 128-bit normalised")
		}
		var lo big.Int
		lo.And(&w, new(big.Int).SetUint64(^uint64(0)))
		elPow10[q-elMinExp10][0] = w.Rsh(&w, 64).Uint64()
		elPow10[q-elMinExp10][1] = lo.Uint64()
		elExp2[q-elMinExp10] = int32(e2)
	}
}

// pow10Exact holds the powers of ten that are exactly representable as
// float64 (10⁰ … 10²²), the Clinger fast-path multipliers.
var pow10Exact = [23]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// convertDecimal converts mant·10^exp10 (sign applied last) to the
// correctly-rounded float64, or reports ok=false when neither exact route
// applies and the caller must fall back to strconv on the original token.
// mant must be the exact significand (no truncated digits).
func convertDecimal(mant uint64, exp10 int, neg bool) (float64, bool) {
	if mant == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	// Clinger: both operands exact, one rounding.
	if mant <= 1<<53 && exp10 >= -22 && exp10 <= 22 {
		f := float64(mant)
		if exp10 > 0 {
			f *= pow10Exact[exp10]
		} else if exp10 < 0 {
			f /= pow10Exact[-exp10]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	if exp10 < elMinExp10 || exp10 > elMaxExp10 {
		return 0, false
	}
	// Eisel–Lemire: normalise the mantissa, multiply by the 128-bit power,
	// and take the top bits, falling back whenever the truncated low bits
	// could reach the rounding decision.
	lz := bits.LeadingZeros64(mant)
	m := mant << lz
	pow := &elPow10[exp10-elMinExp10]
	xHi, xLo := bits.Mul64(m, pow[0])
	if xHi&0x1FF == 0x1FF {
		// The 9 rounding bits are saturated: consult the low word of the
		// power to resolve, and give up if it still saturates (the dropped
		// 192-bit tail could then carry into the mantissa).
		yHi, _ := bits.Mul64(m, pow[1])
		var carry uint64
		xLo, carry = bits.Add64(xLo, yHi, 0)
		xHi += carry
		if xHi&0x1FF == 0x1FF && xLo == ^uint64(0) {
			return 0, false
		}
	}
	msb := xHi >> 63
	mant54 := xHi >> (msb + 9)
	// Halfway ambiguity: dropped bits exactly at the round-to-even boundary.
	if xLo == 0 && xHi&0x1FF == 0 && mant54&3 == 1 {
		return 0, false
	}
	// Round to 53 bits (round half up then clear — with the halfway case
	// excluded above this equals round-half-even).
	mant53 := (mant54 + mant54&1) >> 1
	e2 := int(elExp2[exp10-elMinExp10]) + int(msb) - lz + 11
	if mant53>>53 != 0 {
		mant53 >>= 1
		e2++
	}
	// value = mant53 · 2^e2 with mant53 ∈ [2⁵², 2⁵³): IEEE biased exponent.
	biased := e2 + 52 + 1023
	if biased < 1 || biased > 2046 {
		// Subnormal or overflow: strconv handles the denormal rounding and
		// the ErrRange contract.
		return 0, false
	}
	bits64 := uint64(biased)<<52 | mant53&(1<<52-1)
	if neg {
		bits64 |= 1 << 63
	}
	return math.Float64frombits(bits64), true
}

// pow10u holds 10⁰ … 10⁷, the scales of the look-ahead digit runs.
var pow10u = [8]uint64{1, 10, 100, 1000, 10000, 100000, 1000000, 10000000}

// digitRun returns how many of the eight bytes of x, read little-endian
// (first byte lowest), are ASCII digits before the first non-digit: 8 when
// all are. A byte's top bit in the mask marks a non-digit: above9's for
// 0x3A–0xB9, below0's for one under 0x30 or of 0xB0 and more. A carry out
// of a byte only comes from a byte of 0xB0 or more and only reaches the
// bytes after it, which no longer count.
func digitRun(x uint64) int {
	above9 := x + 0x4646464646464646
	below0 := ^(x + 0x5050505050505050)
	return bits.TrailingZeros64((above9|below0)&0x8080808080808080) >> 3
}

// digitsValue returns the value of the first n (1–7) bytes of x, which
// digitRun found to be digits, with three multiplies: the digits are
// shifted to the top of the word, so the bytes below them read as leading
// zeros, then folded pairwise into 2-, 4- and 8-digit groups.
func digitsValue(x uint64, n int) uint64 {
	v := (x - 0x3030303030303030) << (64 - 8*uint(n))
	v = v*10 + v>>8
	v = ((v&0x000000FF000000FF)*(100+1000000<<32) +
		(v>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
	return v & 0xFFFFFFFF
}

// pow5 holds 5⁰ … 5²³; appendUnitFloat multiplies by 5^q with q ≤ 23.
var pow5 = func() (t [24]uint64) {
	t[0] = 1
	for i := 1; i < len(t); i++ {
		t[i] = 5 * t[i-1]
	}
	return t
}()

// twoDigits spells 00 … 99.
const twoDigits = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"40414243444546474849505152535455565758596061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// unitFloat reports whether appendUnitFloat spells v: |v| ∈ [2⁻²⁰, 1),
// binary exponents −20 … −1.
func unitFloat(bits64 uint64) bool {
	be := bits64 >> 52 & 0x7FF
	return be >= 1023-20 && be <= 1023-1
}

// appendUnitFloat appends the shortest 'f' form of the float64 with bits
// bits64, which unitFloat must accept: exactly the bytes of
// strconv.AppendFloat(b, v, 'f', -1, 64). It is strconv's shortest-digit
// algorithm (Ryū) run on exact integers, which the narrow exponent range
// allows. With m the 53-bit mantissa and E the binary exponent, the value
// and its rounding-interval ends are
//
//	(mc + {-1, 0, +1}) · 2^e2,  mc = 2m, e2 = E − 53
//	(mc + {-1, 0, +2}) · 2^e2,  mc = 4m, e2 = E − 54  (m = 2⁵², the lower gap is half)
//
// and, with q the power of ten strconv picks (the smallest with 10^q > 2^-e2,
// 17–23), their scaled decimal values are (mc + k)·5^q / 2^s with
// s = −e2 − q (37–51). mc + 2 < 2⁵⁵ and 5^q < 2⁵⁴, so every product stays
// below 2¹⁰⁹: mc·5^q is one 128-bit product, and the ends differ from it by
// 5^q or 2·5^q. The floors and remainders below are therefore exact, where
// strconv works with a 128-bit truncation of 10^q and tracks whether it
// stayed exact. From there the digit trimming and the rounding are
// strconv's (ryuFtoaShortest and ryuDigits), on one uint64 instead of two
// 9-digit halves: the kept digits round half to even.
func appendUnitFloat(b []byte, bits64 uint64) []byte {
	if bits64>>63 != 0 {
		b = append(b, '-')
	}
	frac := bits64 & (1<<52 - 1)
	m := frac | 1<<52
	e := int(bits64>>52&0x7FF) - 1023
	mc, up, e2 := 2*m, uint64(1), e-53
	if frac == 0 {
		mc, up, e2 = 4*m, 2, e-54
	}
	q := (-e2*78913)>>18 + 1 // strconv's mulByLog2Log10(−e2) + 1
	s := uint(-e2 - q)
	p5 := pow5[q]
	cHi, cLo := bits.Mul64(mc, p5)
	lLo, borrow := bits.Sub64(cLo, p5, 0)
	lHi := cHi - borrow
	uLo, carry := bits.Add64(cLo, up*p5, 0)
	uHi := cHi + carry
	// The ends are odd multiples of 2^e2 with e2 ≤ −54, so they have 54 or
	// more decimal places and are never a multiple of 10^-q. strconv's rule that an end
	// belongs to the interval only when m is even therefore never applies,
	// and the admissible range is [⌊lower⌋+1, ⌊upper⌋].
	dl := (lHi<<(64-s) | lLo>>s) + 1
	du := uHi<<(64-s) | uLo>>s
	dc, fc := cHi<<(64-s)|cLo>>s, cLo&(1<<s-1)
	half := uint64(1) << (s - 1)
	cup := fc > half || (fc == half && dc&1 == 1)
	c0 := fc == 0 // the digits dropped from dc so far are all zero
	trimmed := 0
	var last uint64 // the digit dropped last
	for {
		l, c, cd, u := (dl+9)/10, dc/10, dc%10, du/10
		if l > u {
			break
		}
		if l == c+1 && c < u {
			// strconv's guard: dc fell just below the smallest admissible
			// candidate, which is then the nearest one.
			c, cd, cup = c+1, 0, false
		}
		trimmed++
		c0 = c0 && last == 0
		last = cd
		dl, dc, du = l, c, u
	}
	if trimmed > 0 {
		cup = last > 5 || (last == 5 && (!c0 || dc&1 == 1))
	}
	if dc < du && cup {
		dc++
	}
	for dc%10 == 0 {
		dc /= 10
		trimmed++
	}
	var buf [20]byte
	i := len(buf)
	for dc >= 100 {
		r := dc % 100
		dc /= 100
		i -= 2
		buf[i], buf[i+1] = twoDigits[2*r], twoDigits[2*r+1]
	}
	if dc >= 10 {
		i -= 2
		buf[i], buf[i+1] = twoDigits[2*dc], twoDigits[2*dc+1]
	} else {
		i--
		buf[i] = byte('0' + dc)
	}
	// The digits buf[i:] times 10^(trimmed−q); v < 1 puts the decimal
	// point zeros places before them.
	zeros := q - trimmed - (len(buf) - i)
	b = append(b, '0', '.')
	for ; zeros > 0; zeros-- {
		b = append(b, '0')
	}
	return append(b, buf[i:]...)
}
