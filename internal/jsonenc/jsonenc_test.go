package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestAppendStringMatchesEncodingJSON checks the escaper on the cases
// encoding/json treats specially, against an Encoder with HTML
// escaping on and off.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{"", "plain", `q"b\s`, "<a href='x'>&amp;</a>", "\b\f\n\r\t\x00\x1f\x7f", "é漢字🙂", "\u2028\u2029", "bad\xff\xfe\xc3", strings.Repeat("x", 100)} {
		for _, html := range []bool{true, false} {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(html)
			if err := enc.Encode(s); err != nil {
				t.Fatal(err)
			}
			want := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
			if got := AppendString(nil, s, html); !bytes.Equal(got, want) {
				t.Errorf("AppendString(%q, %v) = %s, want %s", s, html, got, want)
			}
		}
	}
}

// TestAppendFloatMatchesEncodingJSON checks the float appender, whole
// numbers and the exponent switches included, against json.Marshal.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -3, 2296, 0.5, 0.1, 1e-6, 1e-7, 9.99e-7, 1e20, 1e21, 123456789012345,
		1 << 53, 1<<53 + 2, -(1 << 53), -(1<<53 + 2), 1e300, 5e-324, math.MaxFloat64, -math.MaxFloat64, 1.0 / 3} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, want %s", f, got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if Finite(f) {
			t.Errorf("Finite(%v) = true", f)
		}
	}
}
