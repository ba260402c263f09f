// Package jsonenc holds the scalar formatting, checksum splicing and
// layout shared by the hand-written encoders of the campaign records
// (stats.Accumulator, runner.Collector, the campaign summary and
// checkpoint sidecar, cache entries), and Reader, the token reader
// their hand-written decoders share (accumulators, collectors, the
// summary and sidecar, cache entries).
//
// Every encoding function here reproduces encoding/json byte for byte
// (AppendIndent reproduces its Indent): artifacts, sidecars and cache
// entries are checksummed over exactly these bytes, so one differing
// byte would make every file already on disk fail its checksum. The
// encoders append to a caller-owned buffer, and neither they nor Reader
// use reflection.
package jsonenc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"
)

// AppendFloat appends f as encoding/json encodes a float64: the
// shortest representation that parses back to f, in 'f' notation
// unless |f| < 1e-6 or |f| ≥ 1e21, where it switches to 'e' notation
// with a single-digit negative exponent left unpadded (1e-7, not
// 1e-07). NaN and ±Inf have no JSON form; like encoding/json it refuses
// them with a *json.UnsupportedValueError.
//
// An integer below 2^53 in magnitude is its own shortest
// representation, so it is written as strconv.AppendInt writes it,
// without the shortest-digit search; -0 keeps the general path, which
// writes its sign.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if -1<<53 < f && f < 1<<53 {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			return strconv.AppendInt(dst, i, 10), nil
		}
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// AppendString appends s as a quoted JSON string exactly as
// encoding/json.Marshal writes it: '"' and '\\' backslash-escaped;
// \b, \f, \n, \r and \t by name; other control bytes, '<', '>' and '&'
// as \u00XX; U+2028 and U+2029 as \u2028 and \u2029; and each byte
// of invalid UTF-8 as \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// indentStep is the indent of one nesting level in an artifact: the
// indent argument artifacts were laid out with by encoding/json's
// Indent.
const indentStep = "  "

// newline is a newline followed by the indent of the deepest level
// putNewline writes in one copy.
const newline = "\n                                                                "

// punct marks the bytes the layout walks act on: JSON's structural
// punctuation and the quote that opens a string. Every other byte
// outside a string is copied as is.
var punct = [256]bool{'"': true, '{': true, '[': true, ',': true, ':': true, '}': true, ']': true}

// AppendIndent appends compact, a compact JSON value as the encoders
// write it, laid out exactly as encoding/json's Indent lays it out with
// prefix "" and indent "  ": each element of a non-empty object or
// array, and its closing bracket, on a new line indented two spaces per
// level, and a space after each colon; {} and [] stay as they are.
// compact must be valid JSON with no whitespace outside its strings,
// and is not checked. dst grows once, to the exact size of the result.
func AppendIndent(dst, compact []byte) []byte {
	n := indentedLen(compact)
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	w, depth := 0, 0
	for i := 0; i < len(compact); i++ {
		c := compact[i]
		if !punct[c] {
			out[w] = c
			w++
			continue
		}
		switch c {
		case '"':
			j := stringEnd(compact, i)
			w += copy(out[w:], compact[i:j])
			i = j - 1
		case '{', '[':
			out[w] = c
			w++
			if i+1 < len(compact) && (compact[i+1] == '}' || compact[i+1] == ']') {
				out[w] = compact[i+1] // empty: kept as is
				w++
				i++
				continue
			}
			depth++
			w += putNewline(out[w:], depth)
		case ',':
			out[w] = c
			w++
			w += putNewline(out[w:], depth)
		case ':':
			out[w], out[w+1] = c, ' '
			w += 2
		default: // '}', ']'
			depth = max(depth-1, 0)
			w += putNewline(out[w:], depth)
			out[w] = c
			w++
		}
	}
	return dst[:len(dst)+w]
}

// indentedLen is the length AppendIndent gives compact: the same walk,
// counting.
func indentedLen(compact []byte) int {
	n, depth := len(compact), 0
	for i := 0; i < len(compact); i++ {
		c := compact[i]
		if !punct[c] {
			continue
		}
		switch c {
		case '"':
			i = stringEnd(compact, i) - 1
		case '{', '[':
			if i+1 < len(compact) && (compact[i+1] == '}' || compact[i+1] == ']') {
				i++
				continue
			}
			depth++
			n += 1 + depth*len(indentStep)
		case ',':
			n += 1 + depth*len(indentStep)
		case ':':
			n++
		default: // '}', ']'
			depth = max(depth-1, 0)
			n += 1 + depth*len(indentStep)
		}
	}
	return n
}

// putNewline writes a newline and the indent of depth levels at the
// start of out and returns how many bytes it wrote.
func putNewline(out []byte, depth int) int {
	n := 1 + depth*len(indentStep)
	if n <= len(newline) {
		return copy(out[:n], newline)
	}
	out[0] = '\n'
	for i := 1; i < n; i++ {
		out[i] = ' '
	}
	return n
}

// stringEnd returns the offset just past the JSON string that opens at
// data[i], or len(data) if it is not closed.
func stringEnd(data []byte, i int) int {
	for i++; i < len(data); i++ {
		switch data[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return len(data)
}

// space marks JSON's whitespace bytes.
var space = [256]bool{' ': true, '\n': true, '\t': true, '\r': true}

// AppendCompact appends src with the JSON whitespace outside its
// strings removed, undoing AppendIndent or any other layout: the
// compact bytes a record's checksum covers. Whitespace between two
// bytes that are neither punctuation nor a quote would join two tokens
// into one (1 2, tr ue), so it is an error; nothing else is checked.
// dst grows once, by len(src).
func AppendCompact(dst, src []byte) ([]byte, error) {
	dst = slices.Grow(dst, len(src))
	out := dst[len(dst) : len(dst)+len(src)]
	w := 0
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case space[c]:
			j := i + 1
			for j < len(src) && space[src[j]] {
				j++
			}
			if w > 0 && j < len(src) && !punct[out[w-1]] && !punct[src[j]] {
				return dst, fmt.Errorf("jsonenc: whitespace inside a token at offset %d", i)
			}
			i = j - 1
		case c == '"':
			j := stringEnd(src, i)
			w += copy(out[w:], src[i:j])
			i = j - 1
		default:
			out[w] = c
			w++
		}
	}
	return dst[:len(dst)+w], nil
}

// DigestLen is the length of a content digest: hex-encoded sha256.
const DigestLen = 2 * sha256.Size

// VerifyChecksum checks a checksummed record on its own bytes, the
// reader's half of SpliceChecksum: data is the record's compact
// encoding with DigestLen checksum digits at offset at, closing the
// checksum string, and they must be the digest of data with them cut
// out — the bytes SpliceChecksum hashed. Nothing is decoded or
// re-encoded.
func VerifyChecksum(data []byte, at int) error {
	end := at + DigestLen
	if at < 0 || end >= len(data) || data[end] != '"' {
		return fmt.Errorf("jsonenc: want %d checksum digits at offset %d", DigestLen, at)
	}
	h := sha256.New()
	h.Write(data[:at])
	h.Write(data[end:])
	var sum [sha256.Size]byte
	var digest [DigestLen]byte
	hex.Encode(digest[:], h.Sum(sum[:0]))
	if string(digest[:]) != string(data[at:end]) {
		return fmt.Errorf("checksum %q does not match content digest %q", data[at:end], digest[:])
	}
	return nil
}

// SpliceChecksum completes a checksummed record in one encoding pass.
// data is the record's compact encoding with an empty checksum string
// whose (empty) contents sit at offset at; SpliceChecksum inserts the
// hex sha256 of data there, reusing data's array when it has room. The
// digest occupies data[at : at+DigestLen] of the result.
func SpliceChecksum(data []byte, at int) []byte {
	sum := sha256.Sum256(data)
	var digest [DigestLen]byte
	hex.Encode(digest[:], sum[:])
	data = append(data, digest[:]...)
	copy(data[at+DigestLen:], data[at:len(data)-DigestLen])
	copy(data[at:], digest[:])
	return data
}
