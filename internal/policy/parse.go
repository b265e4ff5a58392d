package policy

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Parse turns policy source into an AST. filename is used only for
// error positions; every syntax error carries file:line:col.
func Parse(filename, src string) (*File, error) {
	toks, err := lex(filename, src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	f := &File{}
	for p.peek().kind != tokEOF {
		if p.isKw("schedule") {
			s, err := p.parseSchedule()
			if err != nil {
				return nil, err
			}
			f.Schedules = append(f.Schedules, s)
			continue
		}
		if p.isKw("intent") {
			in, err := p.parseIntent()
			if err != nil {
				return nil, err
			}
			f.Intents = append(f.Intents, in)
			continue
		}
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		f.Rules = append(f.Rules, r)
	}
	return f, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

// isKw reports whether the next token is the given contextual keyword.
func (p *parser) isKw(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && t.text == kw
}

func (p *parser) expectKw(kw string) error {
	t := p.peek()
	if t.kind != tokIdent || t.text != kw {
		return errAt(t.pos, "expected %q, found %s", kw, describe(t))
	}
	p.next()
	return nil
}

func (p *parser) expect(k tokKind) (token, error) {
	t := p.peek()
	if t.kind != k {
		return t, errAt(t.pos, "expected %s, found %s", k, describe(t))
	}
	return p.next(), nil
}

func (p *parser) expectIdent(what string) (token, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return t, errAt(t.pos, "expected %s, found %s", what, describe(t))
	}
	return p.next(), nil
}

// describe renders a token for error messages.
func describe(t token) string {
	switch t.kind {
	case tokEOF:
		return "end of file"
	case tokIdent, tokNumber:
		return fmt.Sprintf("%q", t.text)
	}
	return fmt.Sprintf("%q", t.text)
}

// parseRule parses one rule:
//
//	["rule" NAME] "cpa" PLANE "ldom" LDOM ":" "when" STAT CMP LITERAL
//	["for" N "samples"] "=>" action {"," action}
//	{"cooldown" DURATION | "limit" N "per" DURATION}
func (p *parser) parseRule() (*Rule, error) {
	start := p.peek()
	if start.kind != tokIdent || (start.text != "rule" && start.text != "cpa") {
		return nil, errAt(start.pos, "expected 'rule', 'cpa', 'schedule' or 'intent' to start a declaration, found %s", describe(start))
	}
	r := &Rule{Pos: start.pos}
	if p.isKw("rule") {
		p.next()
		name, err := p.expectIdent("rule name")
		if err != nil {
			return nil, err
		}
		r.Name = name.text
	}
	if err := p.expectKw("cpa"); err != nil {
		return nil, err
	}
	plane, pos, err := p.parsePlaneRef()
	if err != nil {
		return nil, err
	}
	r.Plane, r.PlanePos = plane, pos
	if err := p.expectKw("ldom"); err != nil {
		return nil, err
	}
	if r.LDom, err = p.parseLDomRef(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon); err != nil {
		return nil, err
	}
	if err := p.expectKw("when"); err != nil {
		return nil, err
	}
	stat, err := p.expectIdent("statistic name")
	if err != nil {
		return nil, err
	}
	r.Stat, r.StatPos = stat.text, stat.pos
	cmp, err := p.expect(tokCmp)
	if err != nil {
		return nil, err
	}
	if r.Op, err = core.ParseCmpOp(cmp.text); err != nil {
		return nil, errAt(cmp.pos, "%v", err)
	}
	if r.Threshold, err = p.parseLiteral(); err != nil {
		return nil, err
	}
	if p.isKw("for") {
		p.next()
		n, err := p.expectUint("sample count")
		if err != nil {
			return nil, err
		}
		if n.u == 0 {
			return nil, errAt(n.pos, "'for 0 samples' would never fire; use 1 or more")
		}
		r.ForSamples = n.u
		if err := p.expectKw("samples"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokArrow); err != nil {
		return nil, err
	}
	for {
		a, err := p.parseAction()
		if err != nil {
			return nil, err
		}
		r.Actions = append(r.Actions, a)
		if p.peek().kind != tokComma {
			break
		}
		p.next()
	}
	for {
		switch {
		case p.isKw("cooldown"):
			kw := p.next()
			if r.Cooldown != nil {
				return nil, errAt(kw.pos, "duplicate cooldown clause")
			}
			d, err := p.parseDuration()
			if err != nil {
				return nil, err
			}
			r.Cooldown = &d
		case p.isKw("limit"):
			kw := p.next()
			if r.LimitN > 0 {
				return nil, errAt(kw.pos, "duplicate limit clause")
			}
			n, err := p.expectUint("firing limit")
			if err != nil {
				return nil, err
			}
			if n.u == 0 {
				return nil, errAt(n.pos, "'limit 0' would disable the rule; remove it instead")
			}
			if err := p.expectKw("per"); err != nil {
				return nil, err
			}
			d, err := p.parseDuration()
			if err != nil {
				return nil, err
			}
			r.LimitN, r.LimitPer = n.u, &d
		default:
			return r, nil
		}
	}
}

// parseSchedule parses one scheduler installation:
//
//	"schedule" PLANE ALGO
//
// ALGO is an identifier naming a scheduling algorithm the plane's
// component understands ("edf", "strict", ...) or an alias of one; the
// lexer treats '-' as an identifier character, so hyphenated aliases
// are single tokens.
func (p *parser) parseSchedule() (*Schedule, error) {
	kw := p.next() // "schedule", checked by the caller
	s := &Schedule{Pos: kw.pos}
	plane, pos, err := p.parsePlaneRef()
	if err != nil {
		return nil, err
	}
	s.Plane, s.PlanePos = plane, pos
	algo, err := p.expectIdent("scheduling algorithm name")
	if err != nil {
		return nil, err
	}
	s.Algo, s.AlgoPos = algo.text, algo.pos
	return s, nil
}

// parseIntent parses one cluster-level intent block:
//
//	"intent" NAME "{" { clause ";" } "}"
//	clause = "servers" GLOB
//	       | "target" STAT CMP (LITERAL | DURATION) ["on" PLANE]
//	       | "protect" "ldom" LDOM ["on" PLANEGLOB]
//	       | "fabric" PARAM "ldom" LDOM "=" LITERAL
func (p *parser) parseIntent() (*Intent, error) {
	kw := p.next() // "intent", checked by the caller
	in := &Intent{Pos: kw.pos}
	name, err := p.expectIdent("intent name")
	if err != nil {
		return nil, err
	}
	if strings.ContainsRune(name.text, '*') {
		return nil, errAt(name.pos, "intent name %q may not contain '*'", name.text)
	}
	in.Name = name.text
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	for p.peek().kind != tokRBrace {
		switch {
		case p.isKw("servers"):
			kw := p.next()
			if in.Servers != "" {
				return nil, errAt(kw.pos, "duplicate servers clause")
			}
			glob, err := p.expectIdent("server-name glob")
			if err != nil {
				return nil, err
			}
			in.Servers, in.ServersPos = glob.text, glob.pos
		case p.isKw("target"):
			t, err := p.parseIntentTarget()
			if err != nil {
				return nil, err
			}
			in.Targets = append(in.Targets, t)
		case p.isKw("protect"):
			pr, err := p.parseIntentProtect()
			if err != nil {
				return nil, err
			}
			in.Protects = append(in.Protects, pr)
		case p.isKw("fabric"):
			fc, err := p.parseIntentFabric()
			if err != nil {
				return nil, err
			}
			in.Fabric = append(in.Fabric, fc)
		default:
			return nil, errAt(p.peek().pos, "expected 'servers', 'target', 'protect', 'fabric' or '}' in intent block, found %s", describe(p.peek()))
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
	}
	p.next() // '}'
	return in, nil
}

func (p *parser) parseIntentTarget() (*IntentTarget, error) {
	kw := p.next() // "target"
	t := &IntentTarget{Pos: kw.pos}
	stat, err := p.expectIdent("statistic name")
	if err != nil {
		return nil, err
	}
	t.Stat, t.StatPos = stat.text, stat.pos
	cmp, err := p.expect(tokCmp)
	if err != nil {
		return nil, err
	}
	if t.Op, err = core.ParseCmpOp(cmp.text); err != nil {
		return nil, errAt(cmp.pos, "%v", err)
	}
	// A non-float integer followed by a duration unit is a duration
	// threshold (1ms); anything else is an ordinary literal.
	if n := p.peek(); n.kind == tokNumber && !n.isFloat {
		if u := p.toks[p.i+1]; u.kind == tokIdent {
			if _, isUnit := durationTicks[u.text]; isUnit {
				if t.Dur, err = p.parseDuration(); err != nil {
					return nil, err
				}
				t.IsDur = true
			}
		}
	}
	if !t.IsDur {
		if t.Value, err = p.parseLiteral(); err != nil {
			return nil, err
		}
	}
	if p.isKw("on") {
		p.next()
		plane, pos, err := p.parsePlaneRef()
		if err != nil {
			return nil, err
		}
		t.Plane, t.PlanePos = plane, pos
	}
	return t, nil
}

func (p *parser) parseIntentProtect() (*IntentProtect, error) {
	kw := p.next() // "protect"
	pr := &IntentProtect{Pos: kw.pos}
	if err := p.expectKw("ldom"); err != nil {
		return nil, err
	}
	ref, err := p.parseLDomRef()
	if err != nil {
		return nil, err
	}
	pr.Pos, pr.LDom = kw.pos, ref
	if p.isKw("on") {
		p.next()
		glob, err := p.expectIdent("plane glob")
		if err != nil {
			return nil, err
		}
		pr.Planes, pr.PlanesPos = glob.text, glob.pos
	}
	return pr, nil
}

func (p *parser) parseIntentFabric() (*IntentFabric, error) {
	kw := p.next() // "fabric"
	fc := &IntentFabric{Pos: kw.pos}
	param, err := p.expectIdent("fabric parameter name")
	if err != nil {
		return nil, err
	}
	fc.Param, fc.ParamPos = param.text, param.pos
	if err := p.expectKw("ldom"); err != nil {
		return nil, err
	}
	if fc.LDom, err = p.parseLDomRef(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokAssign); err != nil {
		return nil, err
	}
	if fc.Value, err = p.parseLiteral(); err != nil {
		return nil, err
	}
	return fc, nil
}

// parsePlaneRef accepts a plane alias ("llc", "mem", "cpa0") or a bare
// index number ("cpa 0" ≡ "cpa cpa0").
func (p *parser) parsePlaneRef() (string, Pos, error) {
	t := p.peek()
	switch t.kind {
	case tokIdent:
		p.next()
		return t.text, t.pos, nil
	case tokNumber:
		if t.isFloat {
			return "", t.pos, errAt(t.pos, "plane index must be an integer, found %q", t.text)
		}
		p.next()
		return fmt.Sprintf("cpa%d", t.u), t.pos, nil
	}
	return "", t.pos, errAt(t.pos, "expected plane name or index, found %s", describe(t))
}

// parseLDomRef accepts an LDom name or a DS-id number.
func (p *parser) parseLDomRef() (LDomRef, error) {
	t := p.peek()
	switch t.kind {
	case tokIdent:
		p.next()
		return LDomRef{Pos: t.pos, Name: t.text}, nil
	case tokNumber:
		if t.isFloat {
			return LDomRef{}, errAt(t.pos, "ldom DS-id must be an integer, found %q", t.text)
		}
		p.next()
		return LDomRef{Pos: t.pos, Num: t.u, IsNum: true}, nil
	}
	return LDomRef{}, errAt(t.pos, "expected ldom name or DS-id, found %s", describe(t))
}

// parseAction parses one right-hand-side write:
//
//	["on" PLANE] ["others" | "all" | "ldom" LDOM] PARAM ("="|"+="|"-=") LITERAL
//	["max" LITERAL] ["min" LITERAL]
func (p *parser) parseAction() (*Action, error) {
	a := &Action{Pos: p.peek().pos}
	if p.isKw("on") {
		p.next()
		plane, pos, err := p.parsePlaneRef()
		if err != nil {
			return nil, err
		}
		a.Plane, a.PlanePos = plane, pos
	}
	switch {
	case p.isKw("others"):
		p.next()
		a.Target = TargetOthers
	case p.isKw("all"):
		p.next()
		a.Target = TargetAll
	case p.isKw("ldom"):
		p.next()
		a.Target = TargetLDom
		ref, err := p.parseLDomRef()
		if err != nil {
			return nil, err
		}
		a.LDom = ref
	}
	param, err := p.expectIdent("parameter name")
	if err != nil {
		return nil, err
	}
	a.Param, a.ParamPos = param.text, param.pos
	switch t := p.peek(); t.kind {
	case tokAssign:
		a.Op = AssignSet
	case tokAddEq:
		a.Op = AssignAdd
	case tokSubEq:
		a.Op = AssignSub
	default:
		return nil, errAt(t.pos, "expected '=', '+=' or '-=' after parameter %q, found %s", a.Param, describe(t))
	}
	p.next()
	if a.Operand, err = p.parseLiteral(); err != nil {
		return nil, err
	}
	for {
		switch {
		case p.isKw("max"):
			kw := p.next()
			if a.Max != nil {
				return nil, errAt(kw.pos, "duplicate max clause")
			}
			lit, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			a.Max = &lit
		case p.isKw("min"):
			kw := p.next()
			if a.Min != nil {
				return nil, errAt(kw.pos, "duplicate min clause")
			}
			lit, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			a.Min = &lit
		default:
			return a, nil
		}
	}
}

// parseLiteral parses a number with an optional trailing %.
func (p *parser) parseLiteral() (Literal, error) {
	t, err := p.expect(tokNumber)
	if err != nil {
		return Literal{}, err
	}
	lit := Literal{Pos: t.pos, Text: t.text, IsFloat: t.isFloat, Uint: t.u, Float: t.f}
	if p.peek().kind == tokPercent {
		p.next()
		lit.IsPercent = true
		lit.Text += "%"
	}
	return lit, nil
}

// parseDuration parses INT UNIT where UNIT ∈ {ns, us, ms, s}; the
// number and unit may be juxtaposed ("500us") or spaced ("500 us").
func (p *parser) parseDuration() (Duration, error) {
	n, err := p.expectUint("duration count")
	if err != nil {
		return Duration{}, err
	}
	if n.u == 0 {
		return Duration{}, errAt(n.pos, "duration must be positive")
	}
	unit, err := p.expectIdent("duration unit (ns, us, ms, s)")
	if err != nil {
		return Duration{}, err
	}
	if _, ok := durationTicks[unit.text]; !ok {
		return Duration{}, errAt(unit.pos, "unknown duration unit %q (want ns, us, ms or s)", unit.text)
	}
	return Duration{Pos: n.pos, N: n.u, Unit: unit.text}, nil
}

// expectUint consumes an integer (non-float, non-percent) number token.
func (p *parser) expectUint(what string) (token, error) {
	t := p.peek()
	if t.kind != tokNumber || t.isFloat {
		return t, errAt(t.pos, "expected %s (integer), found %s", what, describe(t))
	}
	return p.next(), nil
}
