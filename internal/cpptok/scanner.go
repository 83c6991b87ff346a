package cpptok

import (
	"fmt"
	"strings"
	"sync"
)

// operators lists all multi-character operators. Maximal munch is not a
// property of this list's ordering: init() compiles it into opTab with
// candidates sorted longest-first per leading byte, and
// TestOperatorTableMaximalMunch enumerates every operator prefix pair to
// keep that structural, not conventional.
var operators = []string{
	"<<=", ">>=", "...", "->*", "<=>",
	"::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
	"&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", ".*",
}

// ScanError describes a lexical error with its source position.
type ScanError struct {
	Line int
	Col  int
	Msg  string
}

// Error implements the error interface.
func (e *ScanError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// Byte classes for the 256-entry dispatch table. The scanner's main
// loop switches on classTab[src[off]] instead of cascading per-byte
// comparisons; every sub-scanner (ident run, number, comment body)
// walks raw offsets and only the paths that can cross a newline pay
// for line accounting.
const (
	clOther  byte = iota
	clWS          // space, \t, \r
	clNL          // \n
	clIdent       // _ a-z A-Z
	clDigit       // 0-9
	clDQuote      // "
	clSQuote      // '
	clSlash       // /
	clHash        // #
	clDot         // .
	clPunct       // remaining operator/punctuation bytes
)

var (
	classTab   [256]byte
	identTab   [256]bool // isIdentCont as a table
	asciiSpTab [256]bool // the ASCII subset of unicode.IsSpace, per strings.TrimSpace
)

// opCand is one multi-character operator candidate: the bytes after the
// leading byte plus the total length.
type opCand struct {
	b1, b2 byte // b2 unused when n == 2
	n      byte // total operator length (2 or 3)
}

// opTab maps a leading byte to its multi-character operator candidates,
// longest first, so a linear probe implements maximal munch by
// construction.
var opTab [256][]opCand

func init() {
	for c := 0; c < 256; c++ {
		b := byte(c)
		switch {
		case b == ' ' || b == '\t' || b == '\r':
			classTab[c] = clWS
		case b == '\n':
			classTab[c] = clNL
		case isIdentStart(b):
			classTab[c] = clIdent
		case isDigit(b):
			classTab[c] = clDigit
		case b == '"':
			classTab[c] = clDQuote
		case b == '\'':
			classTab[c] = clSQuote
		case b == '/':
			classTab[c] = clSlash
		case b == '#':
			classTab[c] = clHash
		case b == '.':
			classTab[c] = clDot
		case isPunct(b):
			classTab[c] = clPunct
		default:
			classTab[c] = clOther
		}
		identTab[c] = isIdentCont(b)
		asciiSpTab[c] = b == ' ' || b == '\t' || b == '\n' || b == '\v' || b == '\f' || b == '\r'
	}
	for _, op := range operators {
		cand := opCand{b1: op[1], n: byte(len(op))}
		if len(op) == 3 {
			cand.b2 = op[2]
		}
		// Insert keeping longer candidates first.
		cands := opTab[op[0]]
		pos := len(cands)
		for i, c := range cands {
			if c.n < cand.n {
				pos = i
				break
			}
		}
		cands = append(cands, opCand{})
		copy(cands[pos+1:], cands[pos:])
		cands[pos] = cand
		opTab[op[0]] = cands
	}
}

// matchOp reports the length of the longest operator starting at
// src[off], or 0 when src[off] starts no multi-character operator.
func matchOp(src string, off int) int {
	for _, cand := range opTab[src[off]] {
		if cand.n == 3 {
			if off+2 < len(src) && src[off+1] == cand.b1 && src[off+2] == cand.b2 {
				return 3
			}
		} else if off+1 < len(src) && src[off+1] == cand.b1 {
			return 2
		}
	}
	return 0
}

// Surface accumulates the single-pass layout statistics the stylometry
// surface floor needs, fused into the scan so raw text is traversed
// exactly once. Line semantics match strings.Split(src, "\n"): a
// trailing newline yields a final empty line, and '\r' stays part of
// its line. The float line-length moments accumulate in line order so
// downstream values are bit-identical to the old two-pass code.
type Surface struct {
	Lines        int
	LineLenSum   float64
	LineLenSumSq float64
	EmptyLines   int

	TabLeadLines   int
	SpaceLeadLines int
	// Leading-space width histogram, restricted to the widths the
	// IndentUnit feature reads; SpaceLeadLines is the total mass.
	Indent2, Indent3, Indent4, Indent8 int

	Tabs, Spaces, WSChars int

	BraceOwnLine, BraceSameLine int

	// '=' assignment spacing and comma spacing, with the exact boundary
	// conventions of the old whole-source loops: a '=' on the very
	// first or last byte of the source is not counted, nor a ',' on the
	// last byte.
	EqSpaced, EqTotal       int
	CommaSpaced, CommaTotal int
}

// Reset zeroes the accumulator for reuse.
func (sf *Surface) Reset() { *sf = Surface{} }

// addLine folds one line (without its '\n' terminator) into the stats.
// atSrcStart/atSrcEnd mark lines touching the source boundaries, where
// the '='/',' spacing loops have exclusive index ranges.
func (sf *Surface) addLine(ln string, atSrcStart, atSrcEnd bool) {
	sf.Lines++
	l := float64(len(ln))
	sf.LineLenSum += l
	sf.LineLenSumSq += l * l

	hasHigh := false
	last := len(ln) - 1
	for j := 0; j < len(ln); j++ {
		switch c := ln[j]; c {
		case '\t':
			sf.Tabs++
			sf.WSChars++
		case ' ':
			sf.Spaces++
			sf.WSChars++
		case '\r':
			sf.WSChars++
		case '=':
			if (j == 0 && atSrcStart) || (j == last && atSrcEnd) {
				break
			}
			// Bytes across the line boundary are '\n' by construction.
			prev, next := byte('\n'), byte('\n')
			if j > 0 {
				prev = ln[j-1]
			}
			if j < last {
				next = ln[j+1]
			}
			if opChar(prev) || opChar(next) {
				break // part of ==, <=, +=, etc.
			}
			sf.EqTotal++
			if prev == ' ' && next == ' ' {
				sf.EqSpaced++
			}
		case ',':
			if j == last && atSrcEnd {
				break
			}
			sf.CommaTotal++
			if j < last && ln[j+1] == ' ' {
				sf.CommaSpaced++
			}
		default:
			if c >= 0x80 {
				hasHigh = true
			}
		}
	}

	// Emptiness and brace placement work on the TrimSpace'd line; the
	// ASCII fast path covers all-ASCII lines, with the unicode-aware
	// fallback only when high bytes are present.
	var trimmed string
	if hasHigh {
		trimmed = strings.TrimSpace(ln)
	} else {
		i, k := 0, len(ln)
		for i < k && asciiSpTab[ln[i]] {
			i++
		}
		for k > i && asciiSpTab[ln[k-1]] {
			k--
		}
		trimmed = ln[i:k]
	}
	if trimmed == "" {
		sf.EmptyLines++
		return
	}
	switch ln[0] {
	case '\t':
		sf.TabLeadLines++
	case ' ':
		sf.SpaceLeadLines++
		w := 1
		for w < len(ln) && ln[w] == ' ' {
			w++
		}
		switch w {
		case 2:
			sf.Indent2++
		case 3:
			sf.Indent3++
		case 4:
			sf.Indent4++
		case 8:
			sf.Indent8++
		}
	}
	if trimmed == "{" {
		sf.BraceOwnLine++
	} else if len(trimmed) > 1 && trimmed[len(trimmed)-1] == '{' {
		sf.BraceSameLine++
	}
}

func opChar(c byte) bool {
	switch c {
	case '=', '<', '>', '!', '+', '-', '*', '/', '%', '&', '|', '^':
		return true
	}
	return false
}

// Scan tokenizes src. It is tolerant: unterminated strings and comments
// are returned as tokens extending to end of input, and an error is
// reported alongside the tokens so stylometry can proceed on partially
// malformed files. The returned slice always ends with a KindEOF token.
func Scan(src string) ([]Token, error) {
	// Dense C++ averages roughly one token per 3-4 bytes; sizing for
	// that means at most one regrowth on real sources instead of the
	// ~12 append doublings a nil slice pays on contest-sized files.
	return scanTokens(src, make([]Token, 0, len(src)/3+16), nil)
}

// MustScan tokenizes src, ignoring lexical errors. It is intended for
// sources produced by this module's own code generator, which are always
// lexically valid.
func MustScan(src string) []Token {
	toks, _ := Scan(src)
	return toks
}

// ScanInto tokenizes src into buf (truncated to zero length first) so
// hot paths can reuse a caller-owned buffer across scans. Tokens alias
// src; the buffer must not outlive uses of the returned slice.
func ScanInto(src string, buf []Token) ([]Token, error) {
	return scanTokens(src, buf[:0], nil)
}

// ScanSurface is ScanInto with the layout pass fused in: surf is reset
// and filled with per-line and per-byte surface statistics as the
// scanner walks, so callers that need both tokens and layout stats
// traverse the raw text exactly once.
func ScanSurface(src string, buf []Token, surf *Surface) ([]Token, error) {
	surf.Reset()
	return scanTokens(src, buf[:0], surf)
}

// tokBufPool holds token buffers for GetBuf/PutBuf: scan scratch for
// callers without a longer-lived scratch arena of their own.
var tokBufPool = sync.Pool{
	New: func() any {
		b := make([]Token, 0, 2048)
		return &b
	},
}

// GetBuf fetches a pooled token buffer for use with ScanInto or
// ScanSurface. Return it with PutBuf once the tokens are dead.
func GetBuf() *[]Token { return tokBufPool.Get().(*[]Token) }

// PutBuf returns a buffer obtained from GetBuf to the pool. The caller
// must not retain the slice (or any Token in it) afterwards.
func PutBuf(b *[]Token) {
	*b = (*b)[:0]
	tokBufPool.Put(b)
}

// scanner is the byte-table scanner state. Positions derive from
// offsets: col = off - lineStart + 1, so the hot loops never maintain a
// per-byte column counter; only paths that can consume a newline touch
// the line accounting.
type scanner struct {
	src       string
	off       int
	line      int
	lineStart int
	// lineToken records whether any token's bytes occupy the current
	// line; '#' starts a preprocessor directive only when false. This
	// is equivalent to the old backwards only-whitespace-on-line scan
	// because every non-whitespace byte belongs to some token.
	lineToken bool
	surf      *Surface
}

// newline consumes bookkeeping for the '\n' at nlOff: flushes surface
// stats for the finished line and advances the line counters. The
// caller still advances s.off past the newline byte.
func (s *scanner) newline(nlOff int) {
	if s.surf != nil {
		s.surf.addLine(s.src[s.lineStart:nlOff], s.lineStart == 0, false)
		s.surf.WSChars++ // the '\n' itself
	}
	s.line++
	s.lineStart = nlOff + 1
	s.lineToken = false
}

// finish flushes the final (unterminated) line at end of input.
func (s *scanner) finish() {
	if s.surf != nil {
		s.surf.addLine(s.src[s.lineStart:], s.lineStart == 0, true)
	}
}

func scanErrorf(line, col int, format string, args ...any) error {
	return &ScanError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func scanTokens(src string, toks []Token, surf *Surface) ([]Token, error) {
	s := scanner{src: src, line: 1, surf: surf}
	var firstErr error
	n := len(src)
	for {
	ws:
		for s.off < n {
			switch classTab[src[s.off]] {
			case clWS:
				s.off++
			case clNL:
				s.newline(s.off)
				s.off++
			default:
				break ws
			}
		}
		if s.off >= n {
			s.finish()
			toks = append(toks, Token{Kind: KindEOF, Line: s.line, Col: s.off - s.lineStart + 1})
			return toks, firstErr
		}

		startOff := s.off
		startLine, startCol := s.line, s.off-s.lineStart+1
		var kind Kind
		var err error

		c := src[s.off]
		switch classTab[c] {
		case clIdent:
			if c == 'R' && s.off+1 < n && src[s.off+1] == '"' {
				kind, err = s.rawString(startLine, startCol)
			} else {
				s.off++
				for s.off < n && identTab[src[s.off]] {
					s.off++
				}
				kind = KindIdent
				if cppKeywords[src[startOff:s.off]] {
					kind = KindKeyword
				}
			}

		case clDigit:
			kind = s.number()

		case clDot:
			if s.off+1 < n && isDigit(src[s.off+1]) {
				kind = s.number()
			} else {
				if l := matchOp(src, s.off); l > 0 {
					s.off += l
				} else {
					s.off++
				}
				kind = KindPunct
			}

		case clDQuote:
			kind = KindStringLit
			err = s.quoted('"', startLine, startCol, KindStringLit)

		case clSQuote:
			kind = KindCharLit
			err = s.quoted('\'', startLine, startCol, KindCharLit)

		case clSlash:
			if s.off+1 < n && src[s.off+1] == '/' {
				s.off += 2
				for s.off < n && src[s.off] != '\n' {
					s.off++
				}
				kind = KindLineComment
			} else if s.off+1 < n && src[s.off+1] == '*' {
				s.off += 2
				kind = KindBlockComment
				for {
					if s.off >= n {
						err = scanErrorf(startLine, startCol, "unterminated block comment")
						break
					}
					b := src[s.off]
					if b == '*' && s.off+1 < n && src[s.off+1] == '/' {
						s.off += 2
						break
					}
					if b == '\n' {
						s.newline(s.off)
					}
					s.off++
				}
			} else {
				if l := matchOp(src, s.off); l > 0 { // "/="
					s.off += l
				} else {
					s.off++
				}
				kind = KindPunct
			}

		case clHash:
			if !s.lineToken {
				// Preprocessor directive: consume to end of line,
				// honoring backslash continuations.
				s.off++
				for s.off < n && src[s.off] != '\n' {
					if src[s.off] == '\\' && s.off+1 < n && src[s.off+1] == '\n' {
						s.newline(s.off + 1)
						s.off += 2
						continue
					}
					s.off++
				}
				kind = KindPreproc
			} else {
				s.off++
				kind = KindPunct
			}

		case clPunct:
			if l := matchOp(src, s.off); l > 0 {
				s.off += l
			} else {
				s.off++
			}
			kind = KindPunct

		default: // clOther
			s.off++
			kind = KindPunct
			err = scanErrorf(startLine, startCol, "unexpected character %q", c)
		}

		toks = append(toks, Token{Kind: kind, Text: src[startOff:s.off], Line: startLine, Col: startCol})
		s.lineToken = true
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
}

func (s *scanner) rawString(line, col int) (Kind, error) {
	// R"delim( ... )delim"
	src, n := s.src, len(s.src)
	s.off += 2 // R"
	delimStart := s.off
	for s.off < n && src[s.off] != '(' {
		if src[s.off] == '\n' {
			s.newline(s.off)
		}
		s.off++
	}
	if s.off >= n {
		return KindStringLit, scanErrorf(line, col, "unterminated raw string")
	}
	delim := src[delimStart:s.off]
	s.off++ // (
	for s.off < n {
		if src[s.off] == ')' && s.off+1+len(delim) < n &&
			src[s.off+1:s.off+1+len(delim)] == delim && src[s.off+1+len(delim)] == '"' {
			s.off += 2 + len(delim)
			return KindStringLit, nil
		}
		if src[s.off] == '\n' {
			s.newline(s.off)
		}
		s.off++
	}
	return KindStringLit, scanErrorf(line, col, "unterminated raw string")
}

func (s *scanner) quoted(q byte, line, col int, kind Kind) error {
	src, n := s.src, len(s.src)
	s.off++
	for s.off < n {
		c := src[s.off]
		if c == '\\' {
			// Escape: the backslash and the next byte, which may be a
			// newline.
			s.off++
			if s.off < n {
				if src[s.off] == '\n' {
					s.newline(s.off)
				}
				s.off++
			}
			continue
		}
		if c == q {
			s.off++
			return nil
		}
		if c == '\n' {
			break
		}
		s.off++
	}
	return scanErrorf(line, col, "unterminated %s literal", kind)
}

func (s *scanner) number() Kind {
	src, n := s.src, len(s.src)
	isFloat := false
	if src[s.off] == '0' && s.off+1 < n && (src[s.off+1] == 'x' || src[s.off+1] == 'X') {
		s.off += 2
		for s.off < n && isHexDigit(src[s.off]) {
			s.off++
		}
	} else {
		for s.off < n && isDigit(src[s.off]) {
			s.off++
		}
		if s.off < n && src[s.off] == '.' && !(s.off+1 < n && src[s.off+1] == '.') {
			isFloat = true
			s.off++
			for s.off < n && isDigit(src[s.off]) {
				s.off++
			}
		}
		if s.off < n && (src[s.off] == 'e' || src[s.off] == 'E') {
			var next, next2 byte
			if s.off+1 < n {
				next = src[s.off+1]
			}
			if s.off+2 < n {
				next2 = src[s.off+2]
			}
			if isDigit(next) || ((next == '+' || next == '-') && isDigit(next2)) {
				isFloat = true
				s.off += 2
				for s.off < n && isDigit(src[s.off]) {
					s.off++
				}
			}
		}
	}
	// Suffixes: u, l, ll, f, etc.
	for s.off < n {
		switch src[s.off] {
		case 'u', 'U', 'l', 'L':
			s.off++
		case 'f', 'F':
			isFloat = true
			s.off++
		default:
			if isFloat {
				return KindFloatLit
			}
			return KindIntLit
		}
	}
	if isFloat {
		return KindFloatLit
	}
	return KindIntLit
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func isPunct(c byte) bool {
	switch c {
	case '{', '}', '(', ')', '[', ']', ';', ',', '.', ':', '?',
		'+', '-', '*', '/', '%', '<', '>', '=', '!', '&', '|', '^', '~', '#', '\\', '@', '$', '`':
		return true
	}
	return false
}

// StripComments returns toks without comment tokens. The input slice is
// not modified.
func StripComments(toks []Token) []Token {
	out := make([]Token, 0, len(toks))
	for _, t := range toks {
		if !t.IsComment() {
			out = append(out, t)
		}
	}
	return out
}

// StripCommentsInPlace filters comment tokens out of toks in place,
// returning the shortened slice. For hot paths that own the token
// buffer; use StripComments when the input must be preserved.
func StripCommentsInPlace(toks []Token) []Token {
	out := toks[:0]
	for _, t := range toks {
		if !t.IsComment() {
			out = append(out, t)
		}
	}
	return out
}
