package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"mobweb/internal/document"
	"mobweb/internal/markup"
)

// vocabSize is the corpus vocabulary: large enough that a cold_query run
// never exhausts a document's distinct three-word queries, small enough
// that the pool queries occur in every document.
const vocabSize = 2000

// corpusDoc is one generated document: its XML source, the parsed model,
// and the distinct words it contains (the cold_query workload draws its
// never-repeated queries from them).
type corpusDoc struct {
	name  string
	xml   []byte
	doc   *document.Document
	words []string
}

// corpus is a seeded document collection plus the fixed query pool of the
// QIC workloads.
type corpus struct {
	docs []corpusDoc
	pool []string
}

// subSeed derives an independent RNG seed for one purpose from the run
// seed, so corpus text, scripts and channel seeds never share a stream.
func subSeed(seed int64, purpose string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, purpose)
	return int64(h.Sum64() >> 1)
}

// vocabulary returns vocabSize distinct pronounceable words in a seeded
// order: position in the slice is Zipf rank, so the seed decides which
// words are common.
func vocabulary(r *rand.Rand) []string {
	const cons, vowels = "bdfgklmnprstvz", "aeiou"
	syl := func(i int) string {
		i %= len(cons) * len(vowels)
		return string([]byte{cons[i/len(vowels)], vowels[i%len(vowels)]})
	}
	words := make([]string, vocabSize)
	for i := range words {
		// The first two syllables encode i, so words are distinct; a
		// third on every other word varies the length.
		w := syl(i) + syl(i/70)
		if i%2 == 1 {
			w += syl(i * 7)
		}
		words[i] = w
	}
	r.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
	return words
}

// genCorpus generates docs research-paper-shaped XML documents whose
// serialized body is exactly docBytes long (so M = docBytes/256 packets,
// the paper's Table 2 geometry) and parses them through markup.ParseXML.
// The same (seed, key) always yields the same bytes.
func genCorpus(seed int64, key string, docs, docBytes int) (*corpus, error) {
	r := rand.New(rand.NewSource(subSeed(seed, "corpus/"+key)))
	vocab := vocabulary(r)
	zipf := rand.NewZipf(r, 1.1, 1, vocabSize-1)
	c := &corpus{docs: make([]corpusDoc, docs)}
	for d := range c.docs {
		name := fmt.Sprintf("doc-%03d.xml", d)
		xml, words := genDoc(r, zipf, vocab, d, docBytes)
		doc, err := markup.ParseXML(bytes.NewReader(xml), name, markup.DefaultTagMap())
		if err != nil {
			return nil, err
		}
		if doc.Size() != docBytes {
			return nil, fmt.Errorf("bench: %s body is %d bytes, want %d", name, doc.Size(), docBytes)
		}
		c.docs[d] = corpusDoc{name: name, xml: xml, doc: doc, words: words}
	}
	// The pool queries pair the commonest words, which every document of
	// a Zipf corpus contains.
	for i := 0; i < 4; i++ {
		c.pool = append(c.pool, vocab[2*i]+" "+vocab[2*i+1])
	}
	return c, nil
}

// genDoc writes one document: abstract, then sections of subsections of
// paragraphs. Half the word draws are corpus-wide Zipf ranks, half are
// shifted by a per-document offset, so documents share common words and
// differ in topic. Only paragraph text enters the serialized body (each
// paragraph costs len(text)+1 bytes), which is how the size is made exact.
func genDoc(r *rand.Rand, zipf *rand.Zipf, vocab []string, d, docBytes int) ([]byte, []string) {
	seen := make(map[string]bool)
	var words []string
	draw := func() string {
		i := int(zipf.Uint64())
		if r.Intn(2) == 0 {
			i = (i + 37*(d+1)) % vocabSize
		}
		w := vocab[i]
		if !seen[w] {
			seen[w] = true
			words = append(words, w)
		}
		return w
	}
	text := func(n int) string {
		ws := make([]string, n)
		for i := range ws {
			ws[i] = draw()
		}
		return strings.Join(ws, " ")
	}

	const minLast = 200 // a shorter tail is folded into the previous paragraph
	var paras []string
	for remaining := docBytes; remaining > 0; {
		p := text(40 + r.Intn(60))
		if remaining-(len(p)+1) < minLast {
			// Last paragraph: extend past the budget, then cut to fit. A
			// cut that lands on a separator would be trimmed by the
			// parser, so it becomes a letter.
			for len(p) < remaining-1 {
				p += " " + draw()
			}
			b := []byte(p[:remaining-1])
			if b[len(b)-1] == ' ' {
				b[len(b)-1] = 'a'
			}
			p = string(b)
		}
		paras = append(paras, p)
		remaining -= len(p) + 1
	}

	// Titles are not part of the body, so their words stay out of the
	// document's query vocabulary.
	bodyWords := words

	var b bytes.Buffer
	para := func(p string) { fmt.Fprintf(&b, "<paragraph>%s</paragraph>", p) }
	fmt.Fprintf(&b, "<research-paper><title>%s</title><abstract>", text(4))
	para(paras[0])
	b.WriteString("</abstract>")
	for rest := paras[1:]; len(rest) > 0; {
		fmt.Fprintf(&b, "<section><title>%s</title>", text(2))
		for s := 2 + r.Intn(2); s > 0 && len(rest) > 0; s-- {
			fmt.Fprintf(&b, "<subsection><title>%s</title>", text(3))
			n := min(2+r.Intn(3), len(rest))
			for _, p := range rest[:n] {
				para(p)
			}
			rest = rest[n:]
			b.WriteString("</subsection>")
		}
		b.WriteString("</section>")
	}
	b.WriteString("</research-paper>")
	return b.Bytes(), bodyWords
}
