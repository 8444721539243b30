// Package spec implements the one spec grammar every name-resolving
// registry in the repository shares: a base name optionally followed by
// a parenthesised key=value parameter list,
//
//	base
//	base(key=value,key=value)
//
// Values may themselves be full specs — commas split parameters only at
// the top parenthesis level — so specs nest: the scheduler
// "carousel(inner=tx6(frac=0.5),rounds=3)" and the whole-configuration
// line "cfg(codec=rse(k=32,ratio=1.5),channel=gilbert(p=0.01,q=0.5))"
// are both one Split away from their parts.
//
// The contract shared by every user (sched.ByName, channel.Parse,
// codes.ByName, the fecperf facade's ParseSpec): a resolver parses with
// Split, renders its canonical form with Format, and the two round-trip —
// Split(Format(base, fields...)) returns the same base and parameters.
package spec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Params is the parsed parameter list of a spec. Keys are unique;
// insertion order is not preserved (render canonical forms with Format,
// not by iterating a Params).
type Params map[string]string

// Split parses "base" or "base(key=value,...)" into the base name and
// its parameter map. A bare name yields nil Params. Commas split
// parameters only at the top parenthesis level, so values may themselves
// be parameterized specs.
func Split(s string) (base string, params Params, err error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 {
		if strings.ContainsRune(s, ')') {
			return "", nil, fmt.Errorf("spec: unbalanced parentheses in %q", s)
		}
		return s, nil, nil
	}
	if !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("spec: unbalanced parentheses in %q", s)
	}
	base = strings.TrimSpace(s[:open])
	params = make(Params)
	body := s[open+1 : len(s)-1]
	depth, start := 0, 0
	flush := func(field string) error {
		field = strings.TrimSpace(field)
		if field == "" {
			return fmt.Errorf("spec: empty parameter in %q", s)
		}
		eq := strings.IndexByte(field, '=')
		if eq <= 0 {
			return fmt.Errorf("spec: parameter %q in %q is not key=value", field, s)
		}
		k := strings.TrimSpace(field[:eq])
		v := strings.TrimSpace(field[eq+1:])
		if _, dup := params[k]; dup {
			return fmt.Errorf("spec: duplicate parameter %q in %q", k, s)
		}
		params[k] = v
		return nil
	}
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return "", nil, fmt.Errorf("spec: unbalanced parentheses in %q", s)
			}
		case ',':
			if depth == 0 {
				if err := flush(body[start:i]); err != nil {
					return "", nil, err
				}
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return "", nil, fmt.Errorf("spec: unbalanced parentheses in %q", s)
	}
	if err := flush(body[start:]); err != nil {
		return "", nil, err
	}
	return base, params, nil
}

// Field is one key=value pair of a rendered spec.
type Field struct{ Key, Value string }

// Format renders the canonical spec form: the bare base when no fields
// are given, base(k1=v1,k2=v2,...) otherwise, in the order given.
func Format(base string, fields ...Field) string {
	if len(fields) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('(')
	for i, f := range fields {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f.Key)
		b.WriteByte('=')
		b.WriteString(f.Value)
	}
	b.WriteByte(')')
	return b.String()
}

// The typed accessors below resolve one parameter each, distinguishing
// "absent" (ok=false, no error) from "present but malformed" (err), so
// resolvers can apply defaults and still reject typos.

// Int returns the named parameter as an int.
func (p Params) Int(key string) (v int, ok bool, err error) {
	s, present := p[key]
	if !present {
		return 0, false, nil
	}
	v, err = strconv.Atoi(s)
	if err != nil {
		return 0, true, fmt.Errorf("spec: parameter %s=%q is not an integer", key, s)
	}
	return v, true, nil
}

// Int64 returns the named parameter as an int64.
func (p Params) Int64(key string) (v int64, ok bool, err error) {
	s, present := p[key]
	if !present {
		return 0, false, nil
	}
	v, err = strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, true, fmt.Errorf("spec: parameter %s=%q is not an integer", key, s)
	}
	return v, true, nil
}

// Uint32 returns the named parameter as a uint32.
func (p Params) Uint32(key string) (v uint32, ok bool, err error) {
	s, present := p[key]
	if !present {
		return 0, false, nil
	}
	u, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, true, fmt.Errorf("spec: parameter %s=%q is not a 32-bit unsigned integer", key, s)
	}
	return uint32(u), true, nil
}

// Float returns the named parameter as a float64.
func (p Params) Float(key string) (v float64, ok bool, err error) {
	s, present := p[key]
	if !present {
		return 0, false, nil
	}
	v, err = strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, true, fmt.Errorf("spec: parameter %s=%q is not a number", key, s)
	}
	return v, true, nil
}

// Unknown returns the parameter keys not in the allowed list, sorted
// lexically — the uniform "no such parameter" check.
func (p Params) Unknown(allowed ...string) []string {
	var bad []string
	for k := range p {
		found := false
		for _, a := range allowed {
			if k == a {
				found = true
				break
			}
		}
		if !found {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	return bad
}
