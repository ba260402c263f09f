package jsonenc

import (
	"fmt"
	"strconv"
)

// Reader decodes what the encoders write, token by token and without
// reflection. The caller spells out the record it expects: the literal
// punctuation and field names, in the order its encoder writes them,
// and a scalar read for each value. Integers must be written as
// strconv writes them; floats may be any JSON number (ExactFloat
// accepts only AppendFloat's spelling). Anything else is an error.
//
// Errors are sticky: after the first, every read returns a zero value
// without consuming input, and Err and End report that first error.
// Nothing a Reader returns aliases its input, so a caller may reuse the
// buffer once it has decoded from it.
type Reader struct {
	data   []byte
	off    int
	spaces bool // skip JSON whitespace before each token
	err    error
}

// NewReader returns a reader of compact JSON, as the encoders write it:
// whitespace anywhere outside a string is an error.
func NewReader(data []byte) Reader { return Reader{data: data} }

// NewIndentedReader returns a reader that also accepts JSON whitespace
// between tokens, as json.Indent inserts it into an artifact.
func NewIndentedReader(data []byte) Reader { return Reader{data: data, spaces: true} }

// Err returns the first error met, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.data) - r.off }

// End reports the first error met, or an error if anything but
// whitespace (on an indented reader) is left unread.
func (r *Reader) End() error {
	if r.err == nil {
		r.space()
		if r.off != len(r.data) {
			r.fail("end of input")
		}
	}
	return r.err
}

// Expect consumes lit, which must come next. On an indented reader,
// whitespace may precede each token of lit; the strings in lit must
// hold no escapes.
func (r *Reader) Expect(lit string) {
	if !r.match(lit) {
		r.fail(strconv.Quote(lit))
	}
}

// ExpectString consumes the JSON string AppendString writes for s.
func (r *Reader) ExpectString(s string) {
	if r.err != nil {
		return
	}
	r.space()
	var buf [128]byte
	q := AppendString(buf[:0], s)
	if rest := r.data[r.off:]; len(rest) >= len(q) && string(rest[:len(q)]) == string(q) {
		r.off += len(q)
		return
	}
	r.fail(string(q))
}

// Accept consumes lit and reports true if it comes next; otherwise it
// consumes nothing and reports false. lit is as for Expect.
func (r *Reader) Accept(lit string) bool {
	off := r.off
	if r.match(lit) {
		return true
	}
	r.off = off
	return false
}

// match consumes lit as far as it matches and reports whether all of
// it did.
func (r *Reader) match(lit string) bool {
	if r.err != nil {
		return false
	}
	if rest := r.data[r.off:]; len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
		r.off += len(lit)
		return true
	}
	if !r.spaces {
		return false
	}
	inString := false
	for i := 0; i < len(lit); i++ {
		if !inString {
			r.space()
		}
		if r.off == len(r.data) || r.data[r.off] != lit[i] {
			return false
		}
		if lit[i] == '"' {
			inString = !inString
		}
		r.off++
	}
	return true
}

// space skips JSON whitespace on an indented reader.
func (r *Reader) space() {
	if !r.spaces {
		return
	}
	for r.off < len(r.data) {
		switch r.data[r.off] {
		case ' ', '\n', '\t', '\r':
			r.off++
		default:
			return
		}
	}
}

// Int reads an integer as strconv.AppendInt writes it — an optional
// minus sign and decimal digits without a leading zero, never -0 —
// that fits in bitSize bits.
func (r *Reader) Int(bitSize int) int64 {
	if r.err != nil {
		return 0
	}
	r.space()
	start, neg := r.off, false
	if r.off < len(r.data) && r.data[r.off] == '-' {
		neg = true
		r.off++
	}
	digits := r.off
	var u uint64 // magnitude, at most 1<<63 (the magnitude of math.MinInt64)
	for ; r.off < len(r.data) && '0' <= r.data[r.off] && r.data[r.off] <= '9'; r.off++ {
		d := uint64(r.data[r.off] - '0')
		if u > (1<<63-d)/10 {
			return r.failAt(start, "integer in range")
		}
		u = u*10 + d
	}
	n := r.off - digits
	switch {
	case n == 0 || (n > 1 && r.data[digits] == '0') || (neg && u == 0):
		return r.failAt(start, "integer")
	case r.off < len(r.data) && (r.data[r.off] == '.' || r.data[r.off] == 'e' || r.data[r.off] == 'E'):
		return r.failAt(start, "integer")
	}
	limit := uint64(1) << (bitSize - 1) // |min|; max is one less
	if neg {
		if u > limit {
			return r.failAt(start, "integer in range")
		}
		return -int64(u-1) - 1
	}
	if u >= limit {
		return r.failAt(start, "integer in range")
	}
	return int64(u)
}

// Float reads any JSON number as the nearest float64, as encoding/json
// decodes one; a number beyond float64's range is an error.
func (r *Reader) Float() float64 {
	f, _ := r.float()
	return f
}

// ExactFloat reads a float written by AppendFloat, refusing every other
// spelling of its value: a record read with it re-encodes byte for
// byte.
func (r *Reader) ExactFloat() float64 {
	f, start := r.float()
	if r.err != nil {
		return 0
	}
	var buf [32]byte
	if canon, err := AppendFloat(buf[:0], f); err != nil || string(canon) != string(r.data[start:r.off]) {
		return float64(r.failAt(start, "float in shortest form"))
	}
	return f
}

// float reads a JSON number as a float64 and returns it with the
// offset its token starts at.
func (r *Reader) float() (float64, int) {
	start, tok := r.number()
	if tok == nil {
		return 0, start
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return float64(r.failAt(start, "number in float64 range")), start
	}
	return f, start
}

// number consumes one token of the JSON number grammar and returns it,
// with the offset it started at; on an error it returns nil.
func (r *Reader) number() (int, []byte) {
	if r.err != nil {
		return r.off, nil
	}
	r.space()
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
