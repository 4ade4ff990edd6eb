package chaos

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mobic/internal/obs"
)

func TestParseAndRoundTrip(t *testing.T) {
	src := `
# a comment
seed 42
http GET */v1/jobs/* nth=2..4 every=2 reset
http * *:9001* prob=0.5 latency=50ms
body POST */v1/jobs nth=1 cut=16
write journal nth=3 torn=5
fsync journal error
accept * nth=1..2 reset
`
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Seed != 42 {
		t.Fatalf("seed = %d, want 42", s.Seed)
	}
	if len(s.Rules) != 6 {
		t.Fatalf("rules = %d, want 6", len(s.Rules))
	}
	r := s.Rules[0]
	if r.Layer != LayerHTTP || r.Method != "GET" || r.From != 2 || r.To != 4 || r.Every != 2 || r.Act != ActReset {
		t.Fatalf("rule 0 parsed wrong: %+v", r)
	}
	// Canonical text reparses to an equal schedule.
	again, err := Parse(s.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if again.String() != s.String() {
		t.Fatalf("round trip diverged:\n%s\nvs\n%s", s.String(), again.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"warp * reset",               // unknown layer
		"http get /x reset",          // lower-case method
		"http GET /x explode",        // unknown fault
		"http GET /x cut=4",          // cut not valid on http layer
		"write journal reset",        // reset not valid on write layer
		"http GET /x nth=0 reset",    // ordinal must be >= 1
		"http GET /x nth=5..2 reset", // inverted range
		"http GET /x prob=1.5 reset", // prob out of range
		"http GET /x latency=banana", // bad duration
		"http GET /x every=x reset",  // bad every
		"http GET /x reset=3",        // argument on bare fault
		"seed -1",                    // negative seed
		"http GET",                   // missing pattern+fault
		"fsync journal torn=3",       // torn not valid on fsync
		"http GET /x bogus=1 reset",  // unknown selector
		"body GET /x reset",          // body layer only cuts
		"http GET /x latency=-5ms",   // non-positive duration
		"http GET /x torn=1",         // torn not valid on http
		"accept * timeout",           // timeout not valid on accept
		"write journal torn=x",       // bad byte count
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted, want error", src)
		}
	}
}

func TestMatchGlob(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"*", "anything/at/all", true},
		{"*/v1/jobs/*", "127.0.0.1:9001/v1/jobs/abc", true},
		{"*/v1/jobs/*", "127.0.0.1:9001/v1/jobs", false},
		{"*/restore", "h/v1/jobs/j1/restore", true},
		{"journal", "journal", true},
		{"journal", "cache", false},
		{"a*b*c", "axxbyyc", true},
		{"a*b*c", "axxbyy", false},
		{"", "", true},
		{"", "x", false},
	}
	for _, c := range cases {
		if got := matchGlob(c.pat, c.s); got != c.want {
			t.Errorf("matchGlob(%q, %q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}

// opKeys drives pick() directly to test selector arithmetic.
func fireSequence(t *testing.T, src string, layer Layer, method, key string, n int) []bool {
	t.Helper()
	inj := New(MustParse(src))
	out := make([]bool, n)
	for i := range out {
		_, out[i] = inj.pick(layer, method, key)
	}
	return out
}

func TestSelectors(t *testing.T) {
	// nth=2..4: fires on matches 2, 3, 4 only.
	got := fireSequence(t, "http GET /x nth=2..4 reset", LayerHTTP, "GET", "/x", 6)
	want := []bool{false, true, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nth=2..4 firing = %v, want %v", got, want)
		}
	}
	// every=3 from the start: matches 1, 4, 7.
	got = fireSequence(t, "http GET /x every=3 reset", LayerHTTP, "GET", "/x", 7)
	want = []bool{true, false, false, true, false, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("every=3 firing = %v, want %v", got, want)
		}
	}
	// nth=2.. open-ended: everything from the second match.
	got = fireSequence(t, "http GET /x nth=2.. reset", LayerHTTP, "GET", "/x", 4)
	want = []bool{false, true, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nth=2.. firing = %v, want %v", got, want)
		}
	}
	// Method filter: POST rule never sees GETs.
	got = fireSequence(t, "http POST /x reset", LayerHTTP, "GET", "/x", 3)
	for _, fired := range got {
		if fired {
			t.Fatal("POST rule fired on a GET")
		}
	}
}

func TestProbDeterminism(t *testing.T) {
	src := "seed 7\nhttp GET /x prob=0.5 reset"
	run := func() []bool {
		return fireSequence(t, src, LayerHTTP, "GET", "/x", 64)
	}
	a, b := run(), run()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("two injectors over the same schedule diverged")
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == 64 {
		t.Fatalf("prob=0.5 fired %d/64 times; want a strict subset", fired)
	}
	// A different seed gives a different (deterministic) pattern.
	c := fireSequence(t, "seed 8\nhttp GET /x prob=0.5 reset", LayerHTTP, "GET", "/x", 64)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 7 and seed 8 injected identically over 64 draws")
	}
}

func TestFirstMatchWins(t *testing.T) {
	src := `
http GET /x nth=1 error
http GET /x reset
`
	inj := New(MustParse(src))
	r, ok := inj.pick(LayerHTTP, "GET", "/x")
	if !ok || r.Act != ActError {
		t.Fatalf("first pick = %+v ok=%v, want error rule", r, ok)
	}
	// Second rule's counter also advanced? No — first match consumed the
	// operation, so rule 2's seen count must still be 0 for match 1 and
	// pick up match 2.
	r, ok = inj.pick(LayerHTTP, "GET", "/x")
	if !ok || r.Act != ActReset {
		t.Fatalf("second pick = %+v ok=%v, want reset rule", r, ok)
	}
	if counts := inj.FiredByRule(); counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("FiredByRule = %v, want [1 1]", counts)
	}
}

func TestRoundTripperFaults(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "0123456789abcdef0123456789abcdef")
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")

	reg := obs.NewRegistry()
	inj := New(MustParse(`
http GET `+host+`/reset nth=1 reset
http GET `+host+`/timeout nth=1 timeout
http GET `+host+`/slow nth=1 latency=30ms
body GET `+host+`/cut nth=1 cut=10
`), WithRecorder(reg))
	client := &http.Client{Transport: inj.RoundTripper(nil)}

	// reset: transport error, tagged injected.
	if _, err := client.Get(srv.URL + "/reset"); err == nil {
		t.Fatal("reset rule: request succeeded")
	} else if !IsInjected(errors.Unwrap(unwrapURL(err))) && !strings.Contains(err.Error(), "chaos") {
		t.Fatalf("reset rule: error not tagged: %v", err)
	}

	// timeout: blocks until the context deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/timeout", nil)
	start := time.Now()
	if _, err := client.Do(req); err == nil {
		t.Fatal("timeout rule: request succeeded")
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("timeout rule returned after %v, want ~40ms block", d)
	}

	// latency: delayed but successful.
	start = time.Now()
	resp, err := client.Get(srv.URL + "/slow")
	if err != nil {
		t.Fatalf("latency rule: %v", err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("latency rule: round trip took %v, want >= 30ms", d)
	}

	// cut: success then mid-body failure after 10 bytes.
	resp, err = client.Get(srv.URL + "/cut")
	if err != nil {
		t.Fatalf("cut rule round trip: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatal("cut rule: body read succeeded")
	}
	if len(body) != 10 {
		t.Fatalf("cut rule delivered %d bytes, want 10", len(body))
	}

	// Unmatched paths pass through untouched.
	resp, err = client.Get(srv.URL + "/clean")
	if err != nil {
		t.Fatalf("clean request: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) != 32 {
		t.Fatalf("clean request read %d bytes, want 32", len(body))
	}

	if inj.Fired() != 4 {
		t.Fatalf("Fired = %d, want 4", inj.Fired())
	}
	if got := reg.Counter(obs.ChaosInjected); got != 4 {
		t.Fatalf("mobic_chaos_injected_total = %d, want 4", got)
	}
}

// unwrapURL strips the *url.Error wrapper http.Client adds.
func unwrapURL(err error) error {
	type wrapper interface{ Unwrap() error }
	if w, ok := err.(wrapper); ok {
		return w.Unwrap()
	}
	return err
}

func TestListenerReset(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := New(MustParse("accept * nth=1 reset"))
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})}
	wrapped := inj.Listener(l)
	go srv.Serve(wrapped)
	defer srv.Close()

	// First connection is reset; a plain GET on a fresh connection fails.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 2 * time.Second}
	if _, err := client.Get("http://" + l.Addr().String()); err == nil {
		t.Fatal("first connection survived an accept reset")
	}
	// Second connection goes through.
	resp, err := client.Get("http://" + l.Addr().String())
	if err != nil {
		t.Fatalf("second connection: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" {
		t.Fatalf("second connection body = %q", body)
	}
}

// memFile is an in-memory OSFile.
type memFile struct {
	buf    bytes.Buffer
	synced int
}

func (m *memFile) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memFile) Sync() error                 { m.synced++; return nil }
func (m *memFile) Close() error                { return nil }

func TestFileTornWriteAndFsyncError(t *testing.T) {
	inj := New(MustParse(`
write journal nth=2 torn=3
fsync journal nth=2 error
`))
	mf := &memFile{}
	f := inj.File("journal", mf)

	if n, err := f.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("write 1: n=%d err=%v", n, err)
	}
	n, err := f.Write([]byte("world"))
	if err == nil {
		t.Fatal("write 2: torn write reported success")
	}
	if n != 3 {
		t.Fatalf("write 2: n=%d, want 3", n)
	}
	if got := mf.buf.String(); got != "hellowor" {
		t.Fatalf("on-disk bytes = %q, want %q", got, "hellowor")
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 1: %v", err)
	}
	if err := f.Sync(); err == nil {
		t.Fatal("sync 2: injected fsync error missing")
	} else if !IsInjected(err) {
		t.Fatalf("sync 2: error not tagged injected: %v", err)
	}
	if mf.synced != 1 {
		t.Fatalf("underlying syncs = %d, want 1", mf.synced)
	}
	// A different class is untouched.
	g := inj.File("cache", &memFile{})
	for i := 0; i < 4; i++ {
		if _, err := g.Write([]byte("x")); err != nil {
			t.Fatalf("cache write %d: %v", i, err)
		}
		if err := g.Sync(); err != nil {
			t.Fatalf("cache sync %d: %v", i, err)
		}
	}
}
