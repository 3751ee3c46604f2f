package smc

import (
	"strings"
	"testing"
)

// canonicalForms are the property forms in their canonical text: one of
// every atom, bound and combinator shape. TestDecisionMatchesEval checks
// each of them too.
var canonicalForms = []string{
	"aware(0.95)",
	"aware(0.95) within 64",
	"aware(1) within 3",
	"aware(0)",
	"delivered",
	"delivered by 10",
	"delivered(3)",
	"delivered(3) by 10",
	"energy <= 1.5e-09",
	"energy <= 0.25",
	"transmissions <= 4000",
	"not aware(0.5)",
	"aware(0.9) within 32 and energy <= 1e-06",
	"delivered by 8 or aware(0.99) within 64",
	"aware(0.5) and aware(0.9) and aware(0.99)",
	"not (aware(0.5) and delivered)",
	"(aware(0.5) or delivered) and transmissions <= 100",
}

// Canonical specs must round-trip exactly: Parse(s).String() == s.
func TestParseRoundTripsCanonicalForms(t *testing.T) {
	for _, s := range canonicalForms {
		p, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		if got := p.String(); got != s {
			t.Errorf("Parse(%q).String() = %q", s, got)
		}
	}
}

// Constructor-built properties parse back to equivalent values.
func TestParseMatchesConstructors(t *testing.T) {
	for _, p := range []Property{
		AwareFraction(0.95).Within(64),
		AwareFraction(0.5),
		Delivered(),
		Delivered().By(10),
		Deliveries(7).By(3),
		EnergyBelow(1.5e-9),
		TransmissionsBelow(4000),
		And(AwareFraction(0.9).Within(32), EnergyBelow(1e-6)),
		Or(Delivered().By(8), Not(AwareFraction(0.99))),
	} {
		got, err := Parse(p.String())
		if err != nil {
			t.Errorf("Parse(%q): %v", p.String(), err)
			continue
		}
		if got.String() != p.String() {
			t.Errorf("Parse(%q).String() = %q", p.String(), got.String())
		}
		if got.Horizon() != p.Horizon() {
			t.Errorf("%q: parsed horizon %d != constructed %d", p.String(), got.Horizon(), p.Horizon())
		}
	}
}

func TestParseRejectsMalformedSpecs(t *testing.T) {
	for _, s := range []string{
		"",
		"aware",
		"aware(",
		"aware()",
		"aware(2)",          // fraction out of [0,1]
		"aware(-0.1)",       // fraction out of [0,1]
		"aware(0.5) within", // missing bound
		"aware(0.5) within -1",
		"aware(0.5) within 1.5",
		"delivered(0)", // count must be ≥ 1
		"delivered(x)",
		"energy 1e-9", // missing <=
		"energy <= NaN",
		"energy <= Inf",
		"transmissions <= -5",
		"blah(0.5)",
		"aware(0.5) and",
		"not",
		"(aware(0.5)",
		"aware(0.5))",
		"aware(0.5) aware(0.6)",
	} {
		if p, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted malformed spec as %q", s, p)
		}
	}
}

func TestParseAcceptsFlexibleWhitespace(t *testing.T) {
	for in, want := range map[string]string{
		"aware( 0.95 )   within   64": "aware(0.95) within 64",
		"  delivered(3)by 10 ":        "delivered(3) by 10",
		"energy<=1e-9":                "energy <= 1e-09",
		"not(delivered)":              "not delivered",
	} {
		p, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if got := p.String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", in, got, want)
		}
	}
}

// FuzzParse checks that no input panics the parser and that every
// accepted input reaches a stable canonical form: re-parsing String()
// must succeed and be idempotent.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"aware(0.95) within 64",
		"delivered(3) by 10",
		"energy <= 1.5e-09",
		"transmissions <= 4000",
		"not (aware(0.5) and delivered)",
		"(a or b) and c",
		"((((",
		"aware(0.5) or",
		"within within within",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			if p != nil {
				t.Fatalf("Parse(%q) returned both a property and error %v", s, err)
			}
			return
		}
		canon := p.String()
		if strings.TrimSpace(canon) == "" {
			t.Fatalf("Parse(%q) produced empty canonical form", s)
		}
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q (from %q) does not re-parse: %v", canon, s, err)
		}
		if got := p2.String(); got != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q -> %q", s, canon, got)
		}
	})
}
