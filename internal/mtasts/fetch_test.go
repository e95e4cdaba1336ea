package mtasts

import (
	"context"
	"crypto/tls"
	"errors"
	"net"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/pki"
)

// policyServer is a minimal HTTPS policy host for fetcher tests.
type policyServer struct {
	ln   net.Listener
	port int
}

// startPolicyServer serves handler over TLS with the given certificate.
func startPolicyServer(t *testing.T, cert tls.Certificate, handler http.Handler) *policyServer {
	t.Helper()
	ln, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{Certificates: []tls.Certificate{cert}})
	if err != nil {
		t.Fatalf("tls.Listen: %v", err)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	_, portStr, _ := net.SplitHostPort(ln.Addr().String())
	port, _ := strconv.Atoi(portStr)
	return &policyServer{ln: ln, port: port}
}

func loopbackResolver() AddrResolver {
	return AddrResolverFunc(func(ctx context.Context, host string) ([]string, error) {
		return []string{"127.0.0.1"}, nil
	})
}

func policyHandler(body string, status int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != WellKnownPath {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		w.WriteHeader(status)
		w.Write([]byte(body))
	})
}

func newFetcherCA(t *testing.T) *pki.CA {
	t.Helper()
	ca, err := pki.NewCA("Fetch Test CA", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func issue(t *testing.T, ca *pki.CA, names ...string) tls.Certificate {
	t.Helper()
	leaf, err := ca.Issue(pki.IssueOptions{Names: names})
	if err != nil {
		t.Fatal(err)
	}
	return leaf.TLSCertificate()
}

func TestFetchSuccess(t *testing.T) {
	ca := newFetcherCA(t)
	srv := startPolicyServer(t, issue(t, ca, "mta-sts.example.com"),
		policyHandler(rfcExamplePolicy, http.StatusOK))
	f := &Fetcher{Resolver: loopbackResolver(), RootCAs: ca.Pool(), Port: srv.port, Timeout: 3 * time.Second}

	policy, body, err := f.Fetch(context.Background(), "example.com")
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if policy.Mode != ModeEnforce || len(policy.MXPatterns) != 3 {
		t.Errorf("policy = %+v", policy)
	}
	if string(body) != rfcExamplePolicy {
		t.Errorf("body = %q", body)
	}
}

func TestFetchDNSError(t *testing.T) {
	f := &Fetcher{
		Resolver: AddrResolverFunc(func(ctx context.Context, host string) ([]string, error) {
			return nil, errors.New("NXDOMAIN")
		}),
		Timeout: time.Second,
	}
	_, _, err := f.Fetch(context.Background(), "example.com")
	if StageOf(err) != StageDNS {
		t.Errorf("stage = %v, err = %v", StageOf(err), err)
	}
}

func TestFetchTCPError(t *testing.T) {
	// Reserve a port, then close it so connections are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, portStr, _ := net.SplitHostPort(ln.Addr().String())
	port, _ := strconv.Atoi(portStr)
	ln.Close()

	f := &Fetcher{Resolver: loopbackResolver(), Port: port, Timeout: 2 * time.Second}
	_, _, err = f.Fetch(context.Background(), "example.com")
	if StageOf(err) != StageTCP {
		t.Errorf("stage = %v, err = %v", StageOf(err), err)
	}
}

func TestFetchTLSNameMismatch(t *testing.T) {
	ca := newFetcherCA(t)
	// Certificate for the bare domain, not the mta-sts subdomain — the
	// dominant self-managed error in the paper (94.5% of TLS errors).
	srv := startPolicyServer(t, issue(t, ca, "example.com"),
		policyHandler(rfcExamplePolicy, http.StatusOK))
	f := &Fetcher{Resolver: loopbackResolver(), RootCAs: ca.Pool(), Port: srv.port, Timeout: 3 * time.Second}

	_, _, err := f.Fetch(context.Background(), "example.com")
	if StageOf(err) != StageTLS {
		t.Fatalf("stage = %v, err = %v", StageOf(err), err)
	}
	if CertProblemOf(err) != pki.ProblemNameMismatch {
		t.Errorf("cert problem = %v", CertProblemOf(err))
	}
}

func TestFetchTLSSelfSigned(t *testing.T) {
	ca := newFetcherCA(t)
	leaf, err := ca.Issue(pki.IssueOptions{Names: []string{"mta-sts.example.com"}, SelfSigned: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := startPolicyServer(t, leaf.TLSCertificate(), policyHandler(rfcExamplePolicy, http.StatusOK))
	f := &Fetcher{Resolver: loopbackResolver(), RootCAs: ca.Pool(), Port: srv.port, Timeout: 3 * time.Second}

	_, _, err = f.Fetch(context.Background(), "example.com")
	if StageOf(err) != StageTLS || CertProblemOf(err) != pki.ProblemSelfSigned {
		t.Errorf("stage=%v problem=%v err=%v", StageOf(err), CertProblemOf(err), err)
	}
}

func TestFetchTLSExpired(t *testing.T) {
	ca := newFetcherCA(t)
	leaf, err := ca.Issue(pki.IssueOptions{
		Names:     []string{"mta-sts.example.com"},
		NotBefore: time.Now().Add(-48 * time.Hour),
		NotAfter:  time.Now().Add(-24 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := startPolicyServer(t, leaf.TLSCertificate(), policyHandler(rfcExamplePolicy, http.StatusOK))
	f := &Fetcher{Resolver: loopbackResolver(), RootCAs: ca.Pool(), Port: srv.port, Timeout: 3 * time.Second}

	_, _, err = f.Fetch(context.Background(), "example.com")
	if StageOf(err) != StageTLS || CertProblemOf(err) != pki.ProblemExpired {
		t.Errorf("stage=%v problem=%v err=%v", StageOf(err), CertProblemOf(err), err)
	}
}

func TestFetchHTTP404(t *testing.T) {
	ca := newFetcherCA(t)
	srv := startPolicyServer(t, issue(t, ca, "mta-sts.example.com"),
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { http.NotFound(w, r) }))
	f := &Fetcher{Resolver: loopbackResolver(), RootCAs: ca.Pool(), Port: srv.port, Timeout: 3 * time.Second}

	_, _, err := f.Fetch(context.Background(), "example.com")
	if StageOf(err) != StageHTTP {
		t.Fatalf("stage = %v, err = %v", StageOf(err), err)
	}
	var fe *FetchError
	if !errors.As(err, &fe) || fe.HTTPStatus != http.StatusNotFound {
		t.Errorf("HTTPStatus = %+v", fe)
	}
}

func TestFetchRedirectNotFollowed(t *testing.T) {
	ca := newFetcherCA(t)
	srv := startPolicyServer(t, issue(t, ca, "mta-sts.example.com"),
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Redirect(w, r, "https://elsewhere.example/policy", http.StatusMovedPermanently)
		}))
	f := &Fetcher{Resolver: loopbackResolver(), RootCAs: ca.Pool(), Port: srv.port, Timeout: 3 * time.Second}

	_, _, err := f.Fetch(context.Background(), "example.com")
	var fe *FetchError
	if !errors.As(err, &fe) || fe.Stage != StageHTTP || fe.HTTPStatus != http.StatusMovedPermanently {
		t.Errorf("redirect handling: %+v (err=%v)", fe, err)
	}
}

func TestFetchSyntaxError(t *testing.T) {
	ca := newFetcherCA(t)
	srv := startPolicyServer(t, issue(t, ca, "mta-sts.example.com"),
		policyHandler("this is not a policy", http.StatusOK))
	f := &Fetcher{Resolver: loopbackResolver(), RootCAs: ca.Pool(), Port: srv.port, Timeout: 3 * time.Second}

	_, body, err := f.Fetch(context.Background(), "example.com")
	if StageOf(err) != StageSyntax {
		t.Fatalf("stage = %v, err = %v", StageOf(err), err)
	}
	if string(body) != "this is not a policy" {
		t.Errorf("body not preserved: %q", body)
	}
}

func TestFetchEmptyPolicyIsSyntaxError(t *testing.T) {
	// The DMARCReport opt-out behavior (§5): valid TLS, empty body.
	ca := newFetcherCA(t)
	srv := startPolicyServer(t, issue(t, ca, "mta-sts.example.com"),
		policyHandler("", http.StatusOK))
	f := &Fetcher{Resolver: loopbackResolver(), RootCAs: ca.Pool(), Port: srv.port, Timeout: 3 * time.Second}

	_, _, err := f.Fetch(context.Background(), "example.com")
	if StageOf(err) != StageSyntax || !errors.Is(err, ErrEmptyPolicy) {
		t.Errorf("empty policy: stage=%v err=%v", StageOf(err), err)
	}
}

func TestFetchWrongContentType(t *testing.T) {
	// RFC 8461 §3.3: the policy SHOULD be served as text/plain. A wrong
	// media type is counted but does not fail the fetch.
	ca := newFetcherCA(t)
	cert := issue(t, ca, "mta-sts.example.com")
	cases := []struct {
		contentType string
		want        int64
	}{
		{"text/plain", 0},
		{"text/plain; charset=utf-8", 0},
		{"TEXT/PLAIN", 0},
		{"text/html", 1},
		{"", 1},
	}
	for _, c := range cases {
		srv := startPolicyServer(t, cert, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if c.contentType == "" {
				w.Header()["Content-Type"] = nil // suppress sniffing's default
			} else {
				w.Header().Set("Content-Type", c.contentType)
			}
			w.Write([]byte(rfcExamplePolicy))
		}))
		reg := obs.NewRegistry()
		f := &Fetcher{Resolver: loopbackResolver(), RootCAs: ca.Pool(), Port: srv.port,
			Timeout: 3 * time.Second, Obs: reg}
		if _, _, err := f.Fetch(context.Background(), "example.com"); err != nil {
			t.Fatalf("Content-Type %q: Fetch: %v", c.contentType, err)
		}
		if got := reg.Counter("mtasts.fetch.wrong_content_type").Value(); got != c.want {
			t.Errorf("Content-Type %q: wrong_content_type = %d, want %d", c.contentType, got, c.want)
		}
	}
}

func TestFetchTimeout(t *testing.T) {
	// A TCP listener that accepts but never completes the TLS handshake.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			// Read and discard; never respond.
			buf := make([]byte, 1024)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
			}
		}
	}()
	_, portStr, _ := net.SplitHostPort(ln.Addr().String())
	port, _ := strconv.Atoi(portStr)
	f := &Fetcher{Resolver: loopbackResolver(), Port: port, Timeout: 300 * time.Millisecond}
	start := time.Now()
	_, _, err = f.Fetch(context.Background(), "example.com")
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("fetch took %v despite 300ms timeout", elapsed)
	}
	if StageOf(err) != StageTLS {
		t.Errorf("hung handshake should surface at TLS stage, got %v (%v)", StageOf(err), err)
	}
}

func TestStageStrings(t *testing.T) {
	want := map[Stage]string{
		StageNone: "none", StageDNS: "DNS", StageTCP: "TCP",
		StageTLS: "TLS", StageHTTP: "HTTP", StageSyntax: "Policy Syntax",
		Stage(42): "stage(42)",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("Stage(%d).String() = %q, want %q", int(s), s.String(), w)
		}
	}
}

func TestPolicyURLAndHost(t *testing.T) {
	if PolicyHost("example.com") != "mta-sts.example.com" {
		t.Error("PolicyHost mismatch")
	}
	if PolicyURL("example.com") != "https://mta-sts.example.com/.well-known/mta-sts.txt" {
		t.Errorf("PolicyURL = %q", PolicyURL("example.com"))
	}
}

// countingSessionCache records which server names the TLS client
// looked up and which lookups found a session to resume.
type countingSessionCache struct {
	tls.ClientSessionCache
	mu   sync.Mutex
	hits map[string]int
	gets map[string]int
}

func (c *countingSessionCache) Get(key string) (*tls.ClientSessionState, bool) {
	s, ok := c.ClientSessionCache.Get(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets[key]++
	if ok {
		c.hits[key]++
	}
	return s, ok
}

// TestFetchSessionResumesOnlySamePolicyHost pins what SessionCache
// buys: crypto/tls keys sessions by server name, mta-sts.<domain>, so
// a second fetch of the same domain resumes, while a different domain
// on the same server (one provider, one certificate) does not.
func TestFetchSessionResumesOnlySamePolicyHost(t *testing.T) {
	ca := newFetcherCA(t)
	srv := startPolicyServer(t, issue(t, ca, "mta-sts.example.com", "mta-sts.example.net"),
		policyHandler(rfcExamplePolicy, http.StatusOK))
	cache := &countingSessionCache{ClientSessionCache: tls.NewLRUClientSessionCache(8),
		hits: map[string]int{}, gets: map[string]int{}}
	f := &Fetcher{Resolver: loopbackResolver(), RootCAs: ca.Pool(), Port: srv.port,
		Timeout: 3 * time.Second, SessionCache: cache}

	for _, domain := range []string{"example.com", "example.com", "example.net"} {
		if _, _, err := f.Fetch(context.Background(), domain); err != nil {
			t.Fatalf("Fetch(%s): %v", domain, err)
		}
	}
	cache.mu.Lock()
	defer cache.mu.Unlock()
	if got := cache.hits["mta-sts.example.com"]; got != 1 {
		t.Errorf("re-fetch of mta-sts.example.com resumed %d times, want 1 (lookups %v)", got, cache.gets)
	}
	if cache.gets["mta-sts.example.net"] == 0 {
		t.Fatalf("no session lookup for mta-sts.example.net (lookups %v)", cache.gets)
	}
	if got := cache.hits["mta-sts.example.net"]; got != 0 {
		t.Errorf("first fetch of mta-sts.example.net resumed %d times, want 0: sessions are per policy host", got)
	}
}
