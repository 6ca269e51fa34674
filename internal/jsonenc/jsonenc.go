// Package jsonenc appends JSON scalars byte-for-byte as encoding/json
// writes them, without reflection, for the hand-written encoders of
// gfsd's event stream and the report exports.
package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat appends a finite float as encoding/json writes a
// float64: the shortest decimal that round-trips, in exponent form
// below 1e-6 and from 1e21 up, with a two-digit negative exponent
// trimmed to one (1e-07 → 1e-7). encoding/json refuses NaN and ±Inf;
// callers check for them first.
func AppendFloat(dst []byte, f float64) []byte {
	// A whole number of magnitude up to 2^53 is its integer's digits;
	// zero goes the long way, which keeps the sign of -0.
	if f != 0 && f >= -1<<53 && f <= 1<<53 {
		if i := int64(f); float64(i) == f {
			return strconv.AppendInt(dst, i, 10)
		}
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
	return dst
}

// Finite reports whether encoding/json can encode f.
func Finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// AppendString appends s as encoding/json writes a string: quoted;
// '"' and '\\' backslash-escaped; \b, \f, \n, \r and \t by name;
// other control bytes as \u00XX; U+2028 and U+2029 as \u2028 and
// \u2029; each invalid UTF-8 byte as \ufffd. With html set, as under
// json.Marshal or Encoder.SetEscapeHTML(true), '<', '>' and '&' are
// written as \u00XX too.
func AppendString(dst []byte, s string, html bool) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && (!html || c != '<' && c != '>' && c != '&') {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
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
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
