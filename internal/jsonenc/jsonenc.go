// Package jsonenc holds the scalar formatting and checksum splicing
// shared by the hand-written encoders of the campaign records
// (stats.Accumulator, runner.Collector, the campaign summary and
// checkpoint sidecar, cache entries), and Reader, the token reader
// their hand-written decoders share (accumulators, collectors, cache
// entries).
//
// Every encoding function here reproduces encoding/json.Marshal byte
// for byte: artifacts, sidecars and cache entries are checksummed over
// exactly these bytes, so one differing byte would make every file
// already on disk fail its checksum. The encoders append to a
// caller-owned buffer, and neither they nor Reader use reflection.
package jsonenc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// AppendFloat appends f as encoding/json encodes a float64: the
// shortest representation that parses back to f, in 'f' notation
// unless |f| < 1e-6 or |f| ≥ 1e21, where it switches to 'e' notation
// with a single-digit negative exponent left unpadded (1e-7, not
// 1e-07). NaN and ±Inf have no JSON form; like encoding/json it refuses
// them with a *json.UnsupportedValueError.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
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

// DigestLen is the length of a content digest: hex-encoded sha256.
const DigestLen = 2 * sha256.Size

// Digest returns the content digest of data: its sha256, hex-encoded.
// Artifact and sidecar readers verify a decoded record by re-encoding it
// with an empty checksum and comparing Digest of those bytes with the
// stored value; the cache hashes a record's own bytes with the digits
// cut out.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// SpliceChecksum completes a checksummed record in one encoding pass.
// data is the record's compact encoding with an empty checksum string
// whose (empty) contents sit at offset at; SpliceChecksum inserts
// Digest(data) there, reusing data's array when it has room. The
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
