// Package textproc implements the structural-characteristic generation
// pipeline of §3.3: document recognizer → lemmatizer → word filter →
// keyword extractor → structural characteristic generator, "operating in
// a pipelined fashion". BuildIndex drives the stages over a whole
// document in that order — the per-token stages as one loop, then the
// keyword extractor's barrier — and collects per-unit keyword counts.
package textproc

import (
	"strings"
	"unicode"
)

// Token is one word observed in a unit's text, annotated with the unit it
// came from and whether it was specially formatted (boldface, italics —
// such words always qualify as keywords per §3.3).
type Token struct {
	// UnitID is the organizational unit the word occurred in.
	UnitID int
	// Word is the raw word, lower-cased.
	Word string
	// Emphasized marks specially-formatted words.
	Emphasized bool
}

// Tokenize is the document-recognizer stage reduced to plain text: it
// splits text into lower-case words, treating any non-letter/digit rune
// as a separator, and drops pure numbers (they carry structure, not
// content). Hyphenated words split into their components, mirroring the
// conservative behaviour of classic IR tokenizers.
func Tokenize(text string) []string {
	if text == "" {
		return nil
	}
	words := make([]string, 0, len(text)/6)
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		w := b.String()
		b.Reset()
		if !allDigits(w) {
			words = append(words, w)
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r):
			b.WriteRune(unicode.ToLower(r))
		case unicode.IsDigit(r):
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return words
}

func allDigits(w string) bool {
	for _, r := range w {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}
