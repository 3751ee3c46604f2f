package smc

import (
	"fmt"
	"math"
	"strconv"
	"unicode"
)

// Parse builds a Property from its text form — the property-spec
// language of docs/SMC.md. The grammar (case-sensitive, whitespace
// between tokens free):
//
//	prop  := or
//	or    := and { "or" and }
//	and   := unary { "and" unary }
//	unary := "not" unary | "(" prop ")" | atom
//	atom  := "aware" "(" FLOAT ")" [ "within" INT ]
//	       | "delivered" [ "(" INT ")" ] [ "by" INT ]
//	       | "energy" "<=" FLOAT
//	       | "transmissions" "<=" INT
//
// FLOAT accepts anything strconv.ParseFloat does (including scientific
// notation); INT is a non-negative decimal. Parse and Property.String
// round-trip: Parse(p.String()) yields a property with the same
// canonical String.
func Parse(s string) (Property, error) {
	p := &parser{toks: lex(s)}
	prop, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if tok := p.peek(); tok != "" {
		return nil, fmt.Errorf("smc: unexpected %q after property", tok)
	}
	return prop, nil
}

// lex splits the spec into tokens: parentheses, "<=", and maximal runs
// of non-space, non-paren characters.
func lex(s string) []string {
	var toks []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case unicode.IsSpace(rune(c)):
			i++
		case c == '(' || c == ')':
			toks = append(toks, string(c))
			i++
		case c == '<' && i+1 < len(s) && s[i+1] == '=':
			toks = append(toks, "<=")
			i += 2
		default:
			j := i
			for j < len(s) && !unicode.IsSpace(rune(s[j])) &&
				s[j] != '(' && s[j] != ')' &&
				!(s[j] == '<' && j+1 < len(s) && s[j+1] == '=') {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		}
	}
	return toks
}

// parser is a hand-rolled recursive-descent parser over the token list.
type parser struct {
	toks []string
	pos  int
}

func (p *parser) peek() string {
	if p.pos >= len(p.toks) {
		return ""
	}
	return p.toks[p.pos]
}

func (p *parser) next() string {
	t := p.peek()
	if t != "" {
		p.pos++
	}
	return t
}

// expect consumes the given token or fails.
func (p *parser) expect(tok string) error {
	if got := p.next(); got != tok {
		if got == "" {
			return fmt.Errorf("smc: expected %q, got end of property", tok)
		}
		return fmt.Errorf("smc: expected %q, got %q", tok, got)
	}
	return nil
}

func (p *parser) parseOr() (Property, error) {
	first, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	terms := []Property{first}
	for p.peek() == "or" {
		p.next()
		t, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	return Or(terms...), nil
}

func (p *parser) parseAnd() (Property, error) {
	first, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	terms := []Property{first}
	for p.peek() == "and" {
		p.next()
		t, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	return And(terms...), nil
}

func (p *parser) parseUnary() (Property, error) {
	switch p.peek() {
	case "not":
		p.next()
		t, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not(t), nil
	case "(":
		p.next()
		t, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return t, nil
	}
	return p.parseAtom()
}

func (p *parser) parseAtom() (Property, error) {
	switch tok := p.next(); tok {
	case "aware":
		if err := p.expect("("); err != nil {
			return nil, err
		}
		frac, err := p.parseFloat()
		if err != nil {
			return nil, err
		}
		if frac < 0 || frac > 1 {
			return nil, fmt.Errorf("smc: aware fraction %v out of [0,1]", frac)
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		prop := AwareFraction(frac)
		if p.peek() == "within" {
			p.next()
			rounds, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			prop = prop.Within(rounds)
		}
		return prop, nil
	case "delivered":
		prop := Delivered()
		if p.peek() == "(" {
			p.next()
			count, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			if count < 1 {
				return nil, fmt.Errorf("smc: delivered count %d, need >= 1", count)
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			prop = Deliveries(int64(count))
		}
		if p.peek() == "by" {
			p.next()
			rounds, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			prop = prop.By(rounds)
		}
		return prop, nil
	case "energy":
		if err := p.expect("<="); err != nil {
			return nil, err
		}
		j, err := p.parseFloat()
		if err != nil {
			return nil, err
		}
		return EnergyBelow(j), nil
	case "transmissions":
		if err := p.expect("<="); err != nil {
			return nil, err
		}
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		return TransmissionsBelow(int64(n)), nil
	case "":
		return nil, fmt.Errorf("smc: expected a predicate, got end of property")
	default:
		return nil, fmt.Errorf("smc: unknown predicate %q", tok)
	}
}

func (p *parser) parseFloat() (float64, error) {
	tok := p.next()
	f, err := strconv.ParseFloat(tok, 64)
	if err != nil || !isFinite(f) {
		return 0, fmt.Errorf("smc: %q is not a finite number", tok)
	}
	return f, nil
}

func (p *parser) parseInt() (int, error) {
	tok := p.next()
	n, err := strconv.Atoi(tok)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("smc: %q is not a non-negative integer", tok)
	}
	return n, nil
}

// isFinite rejects NaN and ±Inf, which would make verdicts meaningless.
func isFinite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}
