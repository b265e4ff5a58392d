package policy

import "strconv"

// tokKind enumerates policy token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber  // integer, hex, or float
	tokPercent // %
	tokColon   // :
	tokComma   // ,
	tokArrow   // =>
	tokAssign  // =
	tokAddEq   // +=
	tokSubEq   // -=
	tokCmp     // > >= < <= == !=
	tokLBrace  // {
	tokRBrace  // }
	tokSemi    // ;
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of file"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokPercent:
		return "'%'"
	case tokColon:
		return "':'"
	case tokComma:
		return "','"
	case tokArrow:
		return "'=>'"
	case tokAssign:
		return "'='"
	case tokAddEq:
		return "'+='"
	case tokSubEq:
		return "'-='"
	case tokCmp:
		return "comparison operator"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokSemi:
		return "';'"
	}
	return "token"
}

// token is one lexical element with its source position.
type token struct {
	kind    tokKind
	text    string
	pos     Pos
	u       uint64  // integer value when kind == tokNumber && !isFloat
	f       float64 // float value when isFloat
	isFloat bool
}

// lexer scans policy source into tokens. Newlines are plain whitespace:
// the grammar is keyword-delimited, so rules may wrap freely.
type lexer struct {
	file string
	src  string
	off  int
	line int
	col  int
}

func lex(file, src string) ([]token, error) {
	lx := &lexer{file: file, src: src, line: 1, col: 1}
	var toks []token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func (lx *lexer) pos() Pos { return Pos{File: lx.file, Line: lx.line, Col: lx.col} }

func (lx *lexer) peekByte() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// isIdentStart accepts '*' so glob patterns in intent blocks — "*",
// "cpa*", "rack0-*" — lex as ordinary identifiers; contexts that need a
// plain name reject the wildcard during resolution, not lexing.
func isIdentStart(c byte) bool {
	return c == '_' || c == '*' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (lx *lexer) next() (token, error) {
	// Skip whitespace and # comments.
	for lx.off < len(lx.src) {
		c := lx.peekByte()
		if isSpace(c) {
			lx.advance()
			continue
		}
		if c == '#' {
			for lx.off < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
			continue
		}
		break
	}
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return token{kind: tokEOF, pos: pos}, nil
	}

	c := lx.peekByte()
	switch {
	case isIdentStart(c):
		start := lx.off
		for lx.off < len(lx.src) {
			b := lx.peekByte()
			if isIdentCont(b) {
				lx.advance()
				continue
			}
			// Hyphenated identifiers (scheduling algorithm aliases):
			// consume '-' only when an identifier character follows,
			// so `waymask-=1` still lexes as minus-equals.
			if b == '-' && lx.off+1 < len(lx.src) && isIdentCont(lx.src[lx.off+1]) {
				lx.advance()
				continue
			}
			break
		}
		return token{kind: tokIdent, text: lx.src[start:lx.off], pos: pos}, nil

	case isDigit(c):
		return lx.number(pos)
	}

	lx.advance()
	switch c {
	case '%':
		return token{kind: tokPercent, text: "%", pos: pos}, nil
	case ':':
		return token{kind: tokColon, text: ":", pos: pos}, nil
	case ',':
		return token{kind: tokComma, text: ",", pos: pos}, nil
	case '{':
		return token{kind: tokLBrace, text: "{", pos: pos}, nil
	case '}':
		return token{kind: tokRBrace, text: "}", pos: pos}, nil
	case ';':
		return token{kind: tokSemi, text: ";", pos: pos}, nil
	case '=':
		switch lx.peekByte() {
		case '>':
			lx.advance()
			return token{kind: tokArrow, text: "=>", pos: pos}, nil
		case '=':
			lx.advance()
			return token{kind: tokCmp, text: "==", pos: pos}, nil
		}
		return token{kind: tokAssign, text: "=", pos: pos}, nil
	case '+':
		if lx.peekByte() == '=' {
			lx.advance()
			return token{kind: tokAddEq, text: "+=", pos: pos}, nil
		}
		return token{}, errAt(pos, "unexpected '+' (did you mean '+='?)")
	case '-':
		if lx.peekByte() == '=' {
			lx.advance()
			return token{kind: tokSubEq, text: "-=", pos: pos}, nil
		}
		return token{}, errAt(pos, "unexpected '-' (did you mean '-='? negative values are not representable)")
	case '>':
		if lx.peekByte() == '=' {
			lx.advance()
			return token{kind: tokCmp, text: ">=", pos: pos}, nil
		}
		return token{kind: tokCmp, text: ">", pos: pos}, nil
	case '<':
		if lx.peekByte() == '=' {
			lx.advance()
			return token{kind: tokCmp, text: "<=", pos: pos}, nil
		}
		return token{kind: tokCmp, text: "<", pos: pos}, nil
	case '!':
		if lx.peekByte() == '=' {
			lx.advance()
			return token{kind: tokCmp, text: "!=", pos: pos}, nil
		}
		return token{}, errAt(pos, "unexpected '!' (did you mean '!='?)")
	}
	return token{}, errAt(pos, "unexpected character %q", string(rune(c)))
}

// number scans integer, hex (0x...), and float (1.5) literals.
func (lx *lexer) number(pos Pos) (token, error) {
	start := lx.off
	lx.advance()
	if (lx.src[start] == '0') && (lx.peekByte() == 'x' || lx.peekByte() == 'X') {
		lx.advance()
		hexStart := lx.off
		for lx.off < len(lx.src) && isHexDigit(lx.peekByte()) {
			lx.advance()
		}
		if lx.off == hexStart {
			return token{}, errAt(pos, "malformed hex literal %q", lx.src[start:lx.off])
		}
		text := lx.src[start:lx.off]
		u, err := strconv.ParseUint(text[2:], 16, 64)
		if err != nil {
			return token{}, errAt(pos, "hex literal %s out of range", text)
		}
		return token{kind: tokNumber, text: text, pos: pos, u: u}, nil
	}
	for lx.off < len(lx.src) && isDigit(lx.peekByte()) {
		lx.advance()
	}
	isFloat := false
	if lx.peekByte() == '.' {
		lx.advance()
		fracStart := lx.off
		for lx.off < len(lx.src) && isDigit(lx.peekByte()) {
			lx.advance()
		}
		if lx.off == fracStart {
			return token{}, errAt(pos, "malformed number %q: digits required after '.'", lx.src[start:lx.off])
		}
		isFloat = true
	}
	text := lx.src[start:lx.off]
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, errAt(pos, "number %s out of range", text)
		}
		return token{kind: tokNumber, text: text, pos: pos, f: f, isFloat: true}, nil
	}
	u, err := strconv.ParseUint(text, 10, 64)
	if err != nil {
		return token{}, errAt(pos, "number %s out of range", text)
	}
	return token{kind: tokNumber, text: text, pos: pos, u: u}, nil
}
