package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

// record is a small record of every kind of value a Reader reads: the
// test's stand-in for the accumulator, collector and cache records.
type record struct {
	N  int64     `json:"n"`
	K  int32     `json:"k"`
	X  float64   `json:"x"`
	S  string    `json:"s"`
	Xs []float64 `json:"xs"`
}

// appendRecord writes rec as encoding/json does, by hand.
func appendRecord(dst []byte, rec *record) []byte {
	dst = append(dst, `{"n":`...)
	dst = strconv.AppendInt(dst, rec.N, 10)
	dst = append(dst, `,"k":`...)
	dst = strconv.AppendInt(dst, int64(rec.K), 10)
	dst = append(dst, `,"x":`...)
	dst, _ = AppendFloat(dst, rec.X)
	dst = append(dst, `,"s":`...)
	dst = AppendString(dst, rec.S)
	dst = append(dst, `,"xs":`...)
	if rec.Xs == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i, x := range rec.Xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst, _ = AppendFloat(dst, x)
	}
	return append(dst, "]}"...)
}

// readRecord reads what appendRecord writes, with the string expected
// to be s; exact reads x with ExactFloat.
func readRecord(r *Reader, s string, exact bool) (rec record, err error) {
	r.Expect(`{"n":`)
	rec.N = r.Int(64)
	r.Expect(`,"k":`)
	rec.K = int32(r.Int(32))
	r.Expect(`,"x":`)
	if exact {
		rec.X = r.ExactFloat()
	} else {
		rec.X = r.Float()
	}
	r.Expect(`,"s":`)
	r.ExpectString(s)
	rec.S = s
	r.Expect(`,"xs":`)
	if !r.Accept("null") {
		r.Expect("[")
		rec.Xs = []float64{}
		for r.Err() == nil && !r.Accept("]") {
			if len(rec.Xs) > 0 {
				r.Expect(",")
			}
			rec.Xs = append(rec.Xs, r.Float())
		}
	}
	r.Expect("}")
	return rec, r.End()
}

func testRecords() []record {
	return []record{
		{N: math.MaxInt64, K: math.MinInt32, X: 1.0 / 3, S: "C=8", Xs: []float64{1, -2.5, 1e-7, 1e21}},
		{N: math.MinInt64, K: math.MaxInt32, X: math.Copysign(0, -1), S: "<a&b>  \x01\"\\", Xs: []float64{}},
		{N: 0, K: 0, X: 5e-324, S: "", Xs: nil},
	}
}

// The reader accepts the compact encoding, and every whitespace form
// json.Indent or a hand edit can give it once AppendCompact has
// stripped it — and refuses all of them unstripped. null and []
// samples stay distinct.
func TestReaderWhitespace(t *testing.T) {
	for _, want := range testRecords() {
		compact := appendRecord(nil, &want)
		if ref, err := json.Marshal(&want); err != nil || !bytes.Equal(ref, compact) {
			t.Fatalf("appendRecord = %s, encoding/json: %s (%v)", compact, ref, err)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, compact, "\t", "  "); err != nil {
			t.Fatal(err)
		}
		spaced := strings.NewReplacer("{", " {\r\n ", ":", "\t: ", ",", " ,\n", "[", "[ ", "]", " ]", "}", "} ").
			Replace(string(compact))
		for _, form := range []struct {
			name string
			data []byte
		}{{"compact", compact}, {"indented", indented.Bytes()}, {"spaced", []byte(spaced)}, {"trailing", append(compact, " \n"...)}} {
			stripped, err := AppendCompact(nil, form.data)
			if err != nil {
				t.Fatalf("%s: AppendCompact: %v\n%s", form.name, err, form.data)
			}
			r := NewReader(stripped)
			got, err := readRecord(&r, want.S, form.name == "compact")
			if err != nil {
				t.Fatalf("%s: %v\n%s", form.name, err, form.data)
			}
			if !bytes.Equal(appendRecord(nil, &got), compact) || (got.Xs == nil) != (want.Xs == nil) {
				t.Fatalf("%s: read %+v, want %+v", form.name, got, want)
			}
			if form.name == "compact" {
				continue
			}
			r = NewReader(form.data)
			if _, err := readRecord(&r, want.S, false); err == nil {
				t.Fatalf("compact reader accepted the %s form", form.name)
			}
		}
	}
	// Whitespace never splits a token: AppendCompact or the reader
	// refuses it.
	for _, bad := range []string{`{ "n" :1 2`, `{"n":- 1`, `{"n":1,"k":2,"x":1 .5`, `{" n":1`} {
		stripped, err := AppendCompact(nil, []byte(bad))
		if err != nil {
			continue
		}
		r := NewReader(stripped)
		if _, err := readRecord(&r, "", false); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}

// Int reads exactly strconv's integers within the bit size: no -0, no
// leading zero, no fraction or exponent, nothing past either end of
// int32 or int64.
func TestReaderInt(t *testing.T) {
	for _, c := range []struct {
		in   string
		bits int
		want int64
		ok   bool
	}{
		{"0", 64, 0, true},
		{"7", 64, 7, true},
		{"-1", 64, -1, true},
		{"9223372036854775807", 64, math.MaxInt64, true},
		{"-9223372036854775808", 64, math.MinInt64, true},
		{"9223372036854775808", 64, 0, false},
		{"-9223372036854775809", 64, 0, false},
		{"18446744073709551615", 64, 0, false},
		{"18446744073709551616", 64, 0, false},
		{"99999999999999999999999", 64, 0, false},
		{"2147483647", 32, math.MaxInt32, true},
		{"-2147483648", 32, math.MinInt32, true},
		{"2147483648", 32, 0, false},
		{"-2147483649", 32, 0, false},
		{"-0", 64, 0, false},
		{"00", 64, 0, false},
		{"01", 64, 0, false},
		{"-01", 64, 0, false},
		{"1.0", 64, 0, false},
		{"1e2", 64, 0, false},
		{"1E2", 64, 0, false},
		{"+1", 64, 0, false},
		{"-", 64, 0, false},
		{"", 64, 0, false},
		{"null", 64, 0, false},
		{`"1"`, 64, 0, false},
	} {
		r := NewReader([]byte(c.in))
		got := r.Int(c.bits)
		err := r.End()
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("Int(%d) of %q = %d, %v; want %d, ok=%v", c.bits, c.in, got, err, c.want, c.ok)
		}
	}
}

// Float reads any JSON number encoding/json would decode into a
// float64 — -0 keeps its sign, exponents in every spelling — and
// nothing outside the JSON grammar or float64's range. ExactFloat
// reads only AppendFloat's spelling.
func TestReaderFloat(t *testing.T) {
	for _, c := range []struct {
		in    string
		ok    bool
		exact bool // AppendFloat writes the value this way
	}{
		{"0", true, true},
		{"-0", true, true},
		{"0.5", true, true},
		{"1e-7", true, true},
		{"1e+21", true, true},
		{"5e-324", true, true},
		{"0.3333333333333333", true, true},
		{"-1.7976931348623157e+308", true, true},
		{"100", true, true},
		{"1e2", true, false},
		{"1E2", true, false},
		{"1e+2", true, false},
		{"100.0", true, false},
		{"1E-7", true, false},
		{"1e-07", true, false},
		{"0.0000001", true, false},
		{"-0.0", true, false},
		{"0.33333333333333331", true, false},
		{"1e400", false, false},
		{"-1e400", false, false},
		{"01", false, false},
		{"1.", false, false},
		{".5", false, false},
		{"1e", false, false},
		{"1e+", false, false},
		{"+1", false, false},
		{"-", false, false},
		{"NaN", false, false},
		{"Infinity", false, false},
		{"0x10", false, false},
		{"1_0", false, false},
		{"", false, false},
	} {
		want, perr := strconv.ParseFloat(c.in, 64)
		r := NewReader([]byte(c.in))
		got := r.Float()
		err := r.End()
		if (err == nil) != c.ok {
			t.Errorf("Float of %q: %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && (perr != nil || math.Float64bits(got) != math.Float64bits(want)) {
			t.Errorf("Float of %q = %v, want %v", c.in, got, want)
		}
		var dec float64
		if jerr := json.Unmarshal([]byte(c.in), &dec); (jerr == nil) != c.ok {
			t.Errorf("Float of %q: ok=%v, encoding/json: %v", c.in, c.ok, jerr)
		}
		r = NewReader([]byte(c.in))
		got = r.ExactFloat()
		if err := r.End(); (err == nil) != c.exact || (c.exact && math.Float64bits(got) != math.Float64bits(want)) {
			t.Errorf("ExactFloat of %q = %v, %v; want exact=%v", c.in, got, err, c.exact)
		}
	}
}

// Every proper prefix of a record is an error, never a panic and never
// a record, compact or laid out and stripped.
func TestReaderTruncation(t *testing.T) {
	for _, want := range testRecords() {
		compact := appendRecord(nil, &want)
		var indented bytes.Buffer
		if err := json.Indent(&indented, compact, "", "  "); err != nil {
			t.Fatal(err)
		}
		for _, data := range [][]byte{compact, indented.Bytes()} {
			for cut := 0; cut < len(data); cut++ {
				if stripped, err := AppendCompact(nil, data[:cut]); err == nil {
					r := NewReader(stripped)
					if _, err := readRecord(&r, want.S, false); err == nil {
						t.Fatalf("prefix of %d bytes of %s read as a record once stripped", cut, data)
					}
				}
				r := NewReader(data[:cut])
				if _, err := readRecord(&r, want.S, false); err == nil {
					t.Fatalf("compact reader: prefix of %d bytes of %s read as a record", cut, data)
				}
			}
		}
	}
}

// Errors are sticky: after the first, reads return zero values and
// consume nothing, and End reports the first error.
func TestReaderErrorsAreSticky(t *testing.T) {
	r := NewReader([]byte(`{"n":x,"k":1}`))
	r.Expect(`{"n":`)
	if got := r.Int(64); got != 0 || r.Err() == nil {
		t.Fatalf("Int of x = %d, %v", got, r.Err())
	}
	first := r.Err()
	r.Expect(`,"k":`)
	if got := r.Int(64); got != 0 || r.Accept("x") || r.Float() != 0 {
		t.Fatal("a read after an error returned a value")
	}
	if err := r.End(); err != first || !strings.Contains(err.Error(), "offset 5") {
		t.Fatalf("End = %v, want the first error %v", err, first)
	}
	if r.Len() != len(`x,"k":1}`) {
		t.Fatalf("%d bytes unread, want the error's offset", r.Len())
	}
}

// Uint reads exactly strconv's unsigned integers: up to MaxUint64, no
// sign, no leading zero, no fraction or exponent.
func TestReaderUint(t *testing.T) {
	for _, c := range []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"0", 0, true},
		{"7", 7, true},
		{"9223372036854775807", math.MaxInt64, true},
		{"9223372036854775808", 1 << 63, true},
		{"18446744073709551615", math.MaxUint64, true},
		{"18446744073709551616", 0, false},
		{"99999999999999999999", 0, false},
		{"-0", 0, false},
		{"-1", 0, false},
		{"+1", 0, false},
		{"00", 0, false},
		{"01", 0, false},
		{"1.0", 0, false},
		{"1e2", 0, false},
		{"", 0, false},
		{`"1"`, 0, false},
	} {
		r := NewReader([]byte(c.in))
		got := r.Uint()
		err := r.End()
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("Uint of %q = %d, %v; want %d, ok=%v", c.in, got, err, c.want, c.ok)
		}
		if want, perr := strconv.ParseUint(c.in, 10, 64); c.ok && (perr != nil || want != got) {
			t.Errorf("Uint of %q = %d, strconv: %d, %v", c.in, got, want, perr)
		}
	}
}

// String returns what encoding/json decodes from the same bytes —
// escapes, surrogate pairs, lone surrogates and invalid UTF-8 as
// U+FFFD — and refuses what it refuses. ExactString reads only
// AppendString's spelling.
func TestReaderString(t *testing.T) {
	for _, in := range []string{
		`""`, `"C=8"`, `"a b"`, `"{[,:]}"`, `"\"\\\/\b\f\n\r\t"`, `"A"`, `"A"`,
		`"<>&"`, `"<>&"`, `"  "`, "\" \"", `"é"`, "\"é\"",
		`"😀"`, `"😀"`, `"\ud83d"`, `"\ude00x"`, `"\ud83dA"`, `"\ud83d\\n"`,
		`"�"`, "\"\xff\xfe\"", "\"a\xe2\x80\"", "\"\x7f\"", `"\u0000\u001f"`,
		"\"\x00\"", "\"\x1f\"", "\"\n\"", `"\x"`, `"\'"`, `"\u12"`, `"\u12g4"`, `"\U0041"`,
		`"unterminated`, `"trailing\`, `"`, ``, `x`, `7`,
	} {
		var want string
		jerr := json.Unmarshal([]byte(in), &want)
		r := NewReader([]byte(in))
		got := r.String()
		err := r.End()
		if (err == nil) != (jerr == nil) || got != want {
			t.Errorf("String of %q = %q, %v; encoding/json: %q, %v", in, got, err, want, jerr)
		}
		r = NewReader([]byte(in))
		exact := r.ExactString()
		err = r.End()
		if canonical := jerr == nil && string(AppendString(nil, want)) == in; (err == nil) != canonical || exact != want && canonical {
			t.Errorf("ExactString of %q = %q, %v; want canonical=%v", in, exact, err, canonical)
		}
	}
}
