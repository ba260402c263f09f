package jsonenc

import (
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Reader decodes what the encoders write, token by token and without
// reflection. The caller spells out the record it expects: the literal
// punctuation and field names, in the order its encoder writes them,
// and a scalar read for each value. Integers must be written as
// strconv writes them; floats may be any JSON number and strings any
// JSON string (ExactFloat and ExactString accept only AppendFloat's and
// AppendString's spelling). Anything else is an error.
//
// Errors are sticky: after the first, every read returns a zero value
// without consuming input, and Err and End report that first error.
// Nothing a Reader returns aliases its input, so a caller may reuse the
// buffer once it has decoded from it.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a reader of compact JSON, as the encoders write it:
// whitespace anywhere outside a string is an error (AppendCompact
// strips it from a laid-out record first).
func NewReader(data []byte) Reader { return Reader{data: data} }

// Err returns the first error met, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.data) - r.off }

// End reports the first error met, or an error if anything is left
// unread.
func (r *Reader) End() error {
	if r.err == nil && r.off != len(r.data) {
		r.fail("end of input")
	}
	return r.err
}

// Expect consumes lit, which must come next.
func (r *Reader) Expect(lit string) {
	if !r.Accept(lit) {
		r.fail(strconv.Quote(lit))
	}
}

// ExpectString consumes the JSON string AppendString writes for s.
func (r *Reader) ExpectString(s string) {
	if r.err != nil {
		return
	}
	var buf [128]byte
	q := AppendString(buf[:0], s)
	if rest := r.data[r.off:]; len(rest) >= len(q) && string(rest[:len(q)]) == string(q) {
		r.off += len(q)
		return
	}
	r.fail(string(q))
}

// Accept consumes lit and reports true if it comes next; otherwise it
// consumes nothing and reports false.
func (r *Reader) Accept(lit string) bool {
	if r.err != nil {
		return false
	}
	if rest := r.data[r.off:]; len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
		r.off += len(lit)
		return true
	}
	return false
}

// Int reads an integer as strconv.AppendInt writes it — an optional
// minus sign and decimal digits without a leading zero, never -0 —
// that fits in bitSize bits.
func (r *Reader) Int(bitSize int) int64 {
	if r.err != nil {
		return 0
	}
	start := r.off
	neg := r.accept('-')
	limit := uint64(1) << (bitSize - 1) // |min|; max is one less
	if !neg {
		limit--
	}
	u := r.unsigned(start, limit)
	switch {
	case r.err != nil:
		return 0
	case neg && u == 0:
		return r.failAt(start, "integer")
	case neg:
		return -int64(u-1) - 1
	}
	return int64(u)
}

// Uint reads an unsigned integer as strconv.AppendUint writes it:
// decimal digits without a sign or a leading zero, at most
// math.MaxUint64.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	return r.unsigned(r.off, math.MaxUint64)
}

// unsigned reads the digits of the integer token that began at start,
// as strconv writes them — no leading zero, no fraction or exponent —
// and at most limit.
func (r *Reader) unsigned(start int, limit uint64) uint64 {
	digits := r.off
	var u uint64
	for ; r.off < len(r.data) && '0' <= r.data[r.off] && r.data[r.off] <= '9'; r.off++ {
		d := uint64(r.data[r.off] - '0')
		if u > (limit-d)/10 {
			return uint64(r.failAt(start, "integer in range"))
		}
		u = u*10 + d
	}
	n := r.off - digits
	switch {
	case n == 0 || (n > 1 && r.data[digits] == '0'):
		return uint64(r.failAt(start, "integer"))
	case r.off < len(r.data) && (r.data[r.off] == '.' || r.data[r.off] == 'e' || r.data[r.off] == 'E'):
		return uint64(r.failAt(start, "integer"))
	}
	return u
}

// Float reads any JSON number as the nearest float64, as encoding/json
// decodes one; a number beyond float64's range is an error.
func (r *Reader) Float() float64 {
	f, _, _ := r.float()
	return f
}

// ExactFloat reads a float written by AppendFloat, refusing every other
// spelling of its value: a record read with it re-encodes byte for
// byte.
func (r *Reader) ExactFloat() float64 {
	f, start, small := r.float()
	if r.err != nil || small {
		return f
	}
	var buf [32]byte
	if canon, err := AppendFloat(buf[:0], f); err != nil || string(canon) != string(r.data[start:r.off]) {
		return float64(r.failAt(start, "float in shortest form"))
	}
	return f
}

// float reads a JSON number as a float64 and returns it with the
// offset its token starts at. small reports a token of at most 15
// digits with neither fraction nor exponent: its value is exact, it is
// decoded in the one pass that scans it, and it is what AppendFloat
// writes for it.
func (r *Reader) float() (f float64, start int, small bool) {
	if r.err != nil {
		return 0, r.off, false
	}
	start = r.off
	i := start
	if i < len(r.data) && r.data[i] == '-' {
		i++
	}
	digits := i
	var u uint64
	for ; i < len(r.data) && i-digits <= 15 && '0' <= r.data[i] && r.data[i] <= '9'; i++ {
		u = u*10 + uint64(r.data[i]-'0')
	}
	if n := i - digits; 0 < n && n <= 15 && (n == 1 || r.data[digits] != '0') &&
		(i == len(r.data) || (r.data[i] != '.' && r.data[i] != 'e' && r.data[i] != 'E')) {
		r.off = i
		f = float64(u)
		if digits > start {
			f = -f // -0 keeps its sign
		}
		return f, start, true
	}
	start, tok := r.number()
	if tok == nil {
		return 0, start, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return float64(r.failAt(start, "number in float64 range")), start, false
	}
	return f, start, false
}

// String reads a JSON string and returns its value as encoding/json
// decodes it: escapes resolved, each byte of invalid UTF-8 and each
// surrogate escape outside a valid pair as U+FFFD. A raw control byte
// or an escape JSON does not define is an error.
func (r *Reader) String() string {
	if r.err != nil {
		return ""
	}
	start := r.off
	if !r.accept('"') {
		r.failAt(start, "string")
		return ""
	}
	i := r.off
	for i < len(r.data) && r.data[i] != '"' && r.data[i] != '\\' && ' ' <= r.data[i] && r.data[i] < utf8.RuneSelf {
		i++
	}
	if i < len(r.data) && r.data[i] == '"' { // nothing to unescape or coerce
		s := string(r.data[r.off:i])
		r.off = i + 1
		return s
	}
	b := append([]byte(nil), r.data[r.off:i]...)
	for i < len(r.data) {
		switch c := r.data[i]; {
		case c == '"':
			r.off = i + 1
			return string(b)
		case c == '\\':
			if i+1 < len(r.data) && escaped[r.data[i+1]] != 0 {
				b = append(b, escaped[r.data[i+1]])
				i += 2
				continue
			}
			rr := hex4(r.data[i:])
			if rr < 0 {
				r.failAt(i, "string escape")
				return ""
			}
			i += 6
			if utf16.IsSurrogate(rr) {
				if pair := utf16.DecodeRune(rr, hex4(r.data[i:])); pair != unicode.ReplacementChar {
					rr = pair
					i += 6
				} else {
					rr = unicode.ReplacementChar
				}
			}
			b = utf8.AppendRune(b, rr)
		case c < ' ':
			r.failAt(i, "string byte")
			return ""
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rr, size := utf8.DecodeRune(r.data[i:])
			b = utf8.AppendRune(b, rr)
			i += size
		}
	}
	r.failAt(len(r.data), "closing quote")
	return ""
}

// ExactString reads a string written by AppendString, refusing every
// other spelling of its value: a record read with it re-encodes byte
// for byte.
func (r *Reader) ExactString() string {
	if r.err != nil {
		return ""
	}
	start := r.off
	s := r.String()
	if r.err != nil {
		return ""
	}
	var buf [128]byte
	if q := AppendString(buf[:0], s); string(q) != string(r.data[start:r.off]) {
		r.failAt(start, "string as AppendString writes it")
		return ""
	}
	return s
}

// escaped maps the byte after a backslash to the byte it stands for,
// for every escape JSON defines but \u; other bytes map to 0.
var escaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 decodes a \uXXXX escape at the start of data, or returns -1.
func hex4(data []byte) rune {
	if len(data) < 6 || data[0] != '\\' || data[1] != 'u' {
		return -1
	}
	var rr rune
	for _, c := range data[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		rr = rr<<4 | rune(c)
	}
	return rr
}

// number consumes one token of the JSON number grammar and returns it,
// with the offset it started at; on an error it returns nil.
func (r *Reader) number() (int, []byte) {
	if r.err != nil {
		return r.off, nil
	}
	start := r.off
	r.accept('-')
	switch {
	case r.accept('0'):
	case r.digits() == 0:
		r.failAt(start, "number")
		return start, nil
	}
	if r.accept('.') && r.digits() == 0 {
		r.failAt(start, "number")
		return start, nil
	}
	if r.accept('e') || r.accept('E') {
		if !r.accept('+') {
			r.accept('-')
		}
		if r.digits() == 0 {
			r.failAt(start, "number")
			return start, nil
		}
	}
	return start, r.data[start:r.off]
}

// accept consumes c if it is the next byte.
func (r *Reader) accept(c byte) bool {
	if r.off < len(r.data) && r.data[r.off] == c {
		r.off++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and returns its length.
func (r *Reader) digits() int {
	start := r.off
	for r.off < len(r.data) && '0' <= r.data[r.off] && r.data[r.off] <= '9' {
		r.off++
	}
	return r.off - start
}

// fail records that want was expected at the current offset.
func (r *Reader) fail(want string) {
	r.failAt(r.off, want)
}

// failAt records, unless an error is already recorded, that want was
// expected at offset off, and rewinds to it.
func (r *Reader) failAt(off int, want string) int64 {
	if r.err == nil {
		r.off = off
		if off == len(r.data) {
			r.err = fmt.Errorf("jsonenc: want %s at offset %d, found end of input", want, off)
		} else {
			r.err = fmt.Errorf("jsonenc: want %s at offset %d, found %q", want, off, r.data[off])
		}
	}
	return 0
}
