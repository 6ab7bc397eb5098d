package mobweb

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mobweb/internal/corpus"
	"mobweb/internal/transport"
)

const sampleXML = `<research-paper>
<title>Sample</title>
<abstract><paragraph>Mobile web browsing over weak wireless channels.</paragraph></abstract>
<section><title>Body</title>
<paragraph>Erasure coding recovers corrupted packets without full retransmission.</paragraph>
<paragraph>Mobile clients cache intact packets across rounds.</paragraph>
</section>
</research-paper>`

func TestParseAnalyzePlanReceive(t *testing.T) {
	doc, err := ParseXML([]byte(sampleXML), "sample.xml")
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(doc)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := an.Plan("mobile web browsing", PlanConfig{
		LOD:        LODParagraph,
		Notion:     NotionQIC,
		PacketSize: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(plan)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < plan.N(); seq++ {
		frame, err := plan.Frame(seq)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := rcv.AddFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	body, err := rcv.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, doc.Body()) {
		t.Error("public API round trip lost document bytes")
	}
}

func TestAnalyzeNil(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Error("nil document accepted")
	}
}

func TestParseHTMLPublic(t *testing.T) {
	html := []byte(`<html><body><h1>T</h1><p>mobile paragraph text</p></body></html>`)
	doc, err := ParseHTML(html, "t.html")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Paragraphs()) == 0 {
		t.Error("no paragraphs extracted")
	}
}

func TestSimulatePublic(t *testing.T) {
	p := DefaultSimParams()
	p.Documents = 5
	p.Repetitions = 1
	res, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanResponseTime <= 0 {
		t.Errorf("mean response time %v, want > 0", res.MeanResponseTime)
	}
}

func TestChooseCookedPublic(t *testing.T) {
	n, err := ChooseCooked(40, 0.1, 0.95)
	if err != nil || n < 40 {
		t.Errorf("ChooseCooked = (%d, %v)", n, err)
	}
	g, err := GammaFor(40, 0.3, 0.99)
	if err != nil || g < 1 {
		t.Errorf("GammaFor = (%v, %v)", g, err)
	}
}

func TestEndToEndServerClient(t *testing.T) {
	engine := NewEngine()
	docs, err := corpus.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := engine.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	injector, err := BernoulliInjector(0.2, 99)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(engine, ServerOptions{InjectorFactory: func() FaultInjector { return injector }})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-done
	}()

	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Timeout = 10 * time.Second

	hits, err := client.Search("mobile browsing", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no search hits")
	}
	res, err := client.Fetch(FetchOptions{
		Doc:       hits[0].Name,
		Query:     "mobile browsing",
		Notion:    NotionQIC,
		LOD:       LODParagraph,
		Caching:   true,
		MaxRounds: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Body == nil {
		t.Fatal("fetch over lossy channel did not complete")
	}
}

func TestSessionFacade(t *testing.T) {
	engine := NewEngine()
	docs, err := corpus.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := engine.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(engine, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	prof, err := NewProfile(ProfileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(client, prof, SessionOptions{ProfileBlend: 0.5, ThinkTime: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	hits, err := sess.Search("mobile web browsing", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	skim, err := sess.Skim(hits[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(skim.Rendered) == 0 {
		t.Error("skim rendered nothing")
	}
	read, err := sess.Read(hits[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if read.Body == nil {
		t.Fatal("read incomplete")
	}
	if sess.Stats().Reads != 1 {
		t.Errorf("stats %+v", sess.Stats())
	}
}

func TestGatewayFacade(t *testing.T) {
	engine := NewEngine()
	docs, err := corpus.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := engine.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := NewServer(engine, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway(tx)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/search?q=mobile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d", resp.StatusCode)
	}
}

// Compile-time checks that the aliases expose the intended interfaces.
var (
	_ FaultInjector = transport.NopInjector{}
)
