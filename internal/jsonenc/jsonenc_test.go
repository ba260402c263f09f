package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

// The integer fast path writes what the general strconv path writes,
// at both sides of 2^53 and the 1e21 notation switch, for -0 and for a
// spread of integers in between.
func TestAppendFloatIntegers(t *testing.T) {
	const p53 = 1 << 53
	values := []float64{0, math.Copysign(0, -1), 1, -1, 42, 1e15, 1e20, 1e21,
		p53 - 1, -(p53 - 1), p53, -p53, p53 + 2, -(p53 + 2), p53 - 0.5, 0.5, -2.5}
	for x := 1.0; x < p53; x = x*3 + 1 {
		values = append(values, x, -x)
	}
	for _, f := range values {
		got, err := AppendFloat(nil, f)
		if err != nil {
			t.Fatalf("AppendFloat(%v): %v", f, err)
		}
		if want, _ := json.Marshal(f); string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, encoding/json: %s", f, got, want)
		}
		if math.Abs(f) < 1e21 {
			if want := strconv.FormatFloat(f, 'f', -1, 64); string(got) != want {
				t.Errorf("AppendFloat(%v) = %s, strconv: %s", f, got, want)
			}
		}
	}
}

// AppendIndent lays out what json.Indent lays out — nesting, empty
// objects and arrays, punctuation and escaped quotes inside strings —
// in a buffer of the exact size, and AppendCompact takes it back.
func TestAppendIndentMatchesJSONIndent(t *testing.T) {
	for _, compact := range []string{
		`{}`, `[]`, `7`, `"a"`, `null`,
		`{"a":{},"b":[],"c":[{}],"d":[[]],"e":{"f":[1,2,{"g":null}]}}`,
		`{"k":"{[,:]} \"q\" \\","x":["\\\"",",",":","{}","[]"]}`,
		`[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]`,
	} {
		var want bytes.Buffer
		if err := json.Indent(&want, []byte(compact), "", "  "); err != nil {
			t.Fatal(err)
		}
		got := AppendIndent(nil, []byte(compact))
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("AppendIndent(%s) =\n%s\njson.Indent:\n%s", compact, got, want.Bytes())
		}
		if n := indentedLen([]byte(compact)); n != len(got) {
			t.Errorf("indentedLen(%s) = %d, AppendIndent wrote %d", compact, n, len(got))
		}
		back, err := AppendCompact(nil, got)
		if err != nil || string(back) != compact {
			t.Errorf("AppendCompact(AppendIndent(%s)) = %s, %v", compact, back, err)
		}
	}
}

// AppendCompact strips whitespace between tokens, never inside a
// string, and refuses whitespace that would join two tokens into one.
func TestAppendCompact(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{" { \"a b\" :\t[ 1 ,\r\n2 ] , \"c\" : \" \\\" \" } \n", `{"a b":[1,2],"c":" \" "}`},
		{"\n\n", ""},
		{`"\\" 1`, `"\\"1`}, // a quote ends a token: the reader refuses what follows
		{`"unterminated \" `, `"unterminated \" `},
	} {
		got, err := AppendCompact([]byte("x"), []byte(c.in))
		if err != nil || string(got) != "x"+c.want {
			t.Errorf("AppendCompact(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{`1 2`, `[1 2]`, `{"n":- 1}`, `tr ue`, `{"n":1 .5}`, `[null null]`} {
		if got, err := AppendCompact(nil, []byte(bad)); err == nil {
			t.Errorf("AppendCompact(%q) = %q, want an error", bad, got)
		}
	}
}

// VerifyChecksum accepts exactly what SpliceChecksum writes.
func TestVerifyChecksum(t *testing.T) {
	rec := []byte(`{"v":1,"checksum":"","x":[1,2]}`)
	at := strings.Index(string(rec), `"checksum":"`) + len(`"checksum":"`)
	rec = SpliceChecksum(rec, at)
	if err := VerifyChecksum(rec, at); err != nil {
		t.Fatalf("VerifyChecksum of a spliced record: %v", err)
	}
	for i := range rec {
		mut := append([]byte(nil), rec...)
		mut[i] ^= 1
		if err := VerifyChecksum(mut, at); err == nil {
			t.Errorf("flipping byte %d verified", i)
		}
	}
	for _, off := range []int{-1, at - 1, at + 1, len(rec), len(rec) - DigestLen} {
		if err := VerifyChecksum(rec, off); err == nil {
			t.Errorf("digits at offset %d verified", off)
		}
	}
}
