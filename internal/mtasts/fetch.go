package mtasts

import (
	"bufio"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"github.com/netsecurelab/mtasts/internal/errtax"
	"github.com/netsecurelab/mtasts/internal/obs"
	"github.com/netsecurelab/mtasts/internal/pki"
	"github.com/netsecurelab/mtasts/internal/retry"
)

// Stage identifies where in the policy retrieval pipeline a failure
// occurred — the exact error breakdown of Figure 5 in the paper.
type Stage int

// Retrieval stages.
const (
	// StageNone: no failure.
	StageNone Stage = iota
	// StageDNS: the policy host name did not resolve.
	StageDNS
	// StageTCP: TCP connection to port 443 failed (closed port, timeout).
	StageTCP
	// StageTLS: the TLS handshake failed (bad certificate, alert).
	StageTLS
	// StageHTTP: the HTTP exchange failed (non-200, malformed response).
	StageHTTP
	// StageSyntax: the body was fetched but is not a valid policy.
	StageSyntax
)

// String returns the figure label for the stage.
func (s Stage) String() string {
	switch s {
	case StageNone:
		return "none"
	case StageDNS:
		return "DNS"
	case StageTCP:
		return "TCP"
	case StageTLS:
		return "TLS"
	case StageHTTP:
		return "HTTP"
	case StageSyntax:
		return "Policy Syntax"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Key returns the stable lowercase identifier used as the final segment
// of metric names ("mtasts.fetch.errors.tls", "scan.policy.stage_errors.dns").
func (s Stage) Key() string {
	switch s {
	case StageNone:
		return "none"
	case StageDNS:
		return "dns"
	case StageTCP:
		return "tcp"
	case StageTLS:
		return "tls"
	case StageHTTP:
		return "http"
	case StageSyntax:
		return "syntax"
	}
	return fmt.Sprintf("stage%d", int(s))
}

// FetchError wraps a retrieval failure with its pipeline stage and — for
// TLS failures — the PKIX problem classification.
type FetchError struct {
	Stage       Stage
	CertProblem pki.Problem // meaningful when Stage == StageTLS
	HTTPStatus  int         // meaningful when Stage == StageHTTP and a response arrived
	Err         error
}

// Error implements the error interface.
func (e *FetchError) Error() string {
	return fmt.Sprintf("mtasts: policy fetch failed at %s stage: %v", e.Stage, e.Err)
}

// Unwrap exposes the underlying error.
func (e *FetchError) Unwrap() error { return e.Err }

// Tax positions the failure in the scan error taxonomy: the stage picks
// the code (a syntax failure refines to the wrapped parse error's own
// code), and the transient bit reproduces the retry classification —
// stage verdicts that reflect the deployment itself (a certificate that
// fails PKIX validation, a non-5xx HTTP status, a policy syntax error)
// are persistent, while socket-level failures at any stage (timeouts,
// resets, dropped DNS) are transient.
func (e *FetchError) Tax() *errtax.Error {
	code := errtax.CodeParse
	transient := false
	switch e.Stage {
	case StageDNS:
		code, transient = errtax.CodeDNSLookup, errtax.Transient(e.Err)
	case StageTCP:
		code, transient = errtax.CodeTCPConnect, errtax.TransientNet(e.Err)
	case StageTLS:
		// A completed handshake that failed certificate verification is a
		// deployment verdict; anything below that (reset, EOF, timeout)
		// is the network.
		code = errtax.CodeTLSHandshake
		var cve *tls.CertificateVerificationError
		if !errors.As(e.Err, &cve) {
			transient = errtax.TransientNet(e.Err)
		}
	case StageHTTP:
		code = errtax.CodeHTTPStatus
		if e.HTTPStatus != 0 {
			// The server answered: only 429/5xx suggest a passing condition.
			transient = e.HTTPStatus == http.StatusTooManyRequests || e.HTTPStatus >= 500
		} else {
			transient = errtax.TransientNet(e.Err)
		}
	case StageSyntax:
		if c, ok := errtax.CodeOf(e.Err); ok {
			code = c
		}
	}
	return errtax.Wrap(errtax.LayerFetch, code, transient, e)
}

// As surfaces the computed taxonomy position to errors.As, so consumers
// (errtax.Transient, the scanner's code extraction) see a typed error
// without the fetcher allocating one on the success path.
func (e *FetchError) As(target any) bool {
	if t, ok := target.(**errtax.Error); ok {
		*t = e.Tax()
		return true
	}
	return false
}

// PolicyHost returns the conventional policy host name for a policy
// domain: "mta-sts." + domain (RFC 8461 §3.3).
func PolicyHost(domain string) string { return "mta-sts." + domain }

// WellKnownPath is the fixed HTTPS path of the policy file.
const WellKnownPath = "/.well-known/mta-sts.txt"

// PolicyURL returns the full HTTPS URL of a domain's policy file.
func PolicyURL(domain string) string {
	return "https://" + PolicyHost(domain) + WellKnownPath
}

// AddrResolver resolves a host name to dialable addresses. The production
// implementation is the resolver package; tests may supply fixtures.
type AddrResolver interface {
	// ResolveAddrs returns candidate "ip" strings (no port) for host.
	ResolveAddrs(ctx context.Context, host string) ([]string, error)
}

// AddrResolverFunc adapts a function to AddrResolver.
type AddrResolverFunc func(ctx context.Context, host string) ([]string, error)

// ResolveAddrs implements AddrResolver.
func (f AddrResolverFunc) ResolveAddrs(ctx context.Context, host string) ([]string, error) {
	return f(ctx, host)
}

// Fetcher retrieves MTA-STS policies over HTTPS with the constraints
// RFC 8461 imposes on senders: HTTPS only, certificate validation against
// the web PKI, no redirects, and a bounded body size.
type Fetcher struct {
	// Resolver maps the policy host to IP addresses. When nil, the system
	// resolver (net.DefaultResolver) is used.
	Resolver AddrResolver
	// RootCAs is the trust store for the HTTPS connection. Nil means the
	// system store.
	RootCAs *x509.CertPool
	// Timeout bounds the entire fetch. Zero means 10s.
	Timeout time.Duration
	// Port overrides the HTTPS port (for loopback test servers). Zero
	// means 443.
	Port int
	// Now anchors certificate validation time; nil means time.Now.
	Now func() time.Time
	// Obs, when non-nil, receives per-stage fetch latencies
	// (mtasts.fetch.{dns,tcp_dial,tls_handshake,http,parse}.seconds) and
	// outcome counters keyed by Stage (mtasts.fetch.errors.<stage>).
	Obs *obs.Registry
	// MaxAttempts bounds attempts per fetch, retrying transient failures
	// (per FetchError.Tax, consulted through errtax.Transient) with
	// backoff; each attempt gets a fresh Timeout. Zero or one means a
	// single attempt.
	MaxAttempts int
	// RetryBase overrides the first backoff delay (default 100ms).
	RetryBase time.Duration
	// RetryBudget, when non-nil, caps total retries across the run.
	RetryBudget *retry.Budget
	// SessionCache, when non-nil, enables TLS session resumption across
	// fetches from this Fetcher. crypto/tls keys the cache by server
	// name, which is the policy host mta-sts.<domain>, so only a
	// re-fetch of the same policy host resumes: two domains hosted by
	// one provider still each pay a full handshake, and sessions never
	// leak across policy hosts. Resumed connections still surface the
	// original certificate chain in ConnectionState, so certificate
	// classification is unaffected.
	SessionCache tls.ClientSessionCache
}

// Fetch retrieves and parses the policy for domain. The raw body (possibly
// nil) is returned alongside the policy so scanners can archive it.
func (f *Fetcher) Fetch(ctx context.Context, domain string) (Policy, []byte, error) {
	return f.FetchFromHost(ctx, domain, PolicyHost(domain))
}

// FetchFromHost retrieves the policy for domain from an explicit policy
// host (the two differ only in diagnostic scenarios).
func (f *Fetcher) FetchFromHost(ctx context.Context, domain, host string) (Policy, []byte, error) {
	sp := f.Obs.StartSpan("mtasts.fetch")
	var policy Policy
	var body []byte
	err := retry.Policy{
		Name:        "mtasts.fetch",
		MaxAttempts: f.MaxAttempts,
		BaseDelay:   f.RetryBase,
		Budget:      f.RetryBudget,
		Obs:         f.Obs,
	}.Do(ctx, func(ctx context.Context) error {
		var opErr error
		policy, body, opErr = f.fetchFromHost(ctx, domain, host)
		return opErr
	})
	sp.EndErr(err)
	if f.Obs.Enabled() {
		if err == nil {
			f.Obs.Counter("mtasts.fetch.ok").Inc()
		} else {
			f.Obs.Counter("mtasts.fetch.errors." + StageOf(err).Key()).Inc()
		}
	}
	return policy, body, err
}

func (f *Fetcher) fetchFromHost(ctx context.Context, domain, host string) (Policy, []byte, error) {
	timeout := f.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	// Stage 1: DNS. Resolve explicitly so resolution failures are
	// attributable (the http transport would fold them into dial errors).
	dnsSpan := f.Obs.StartSpan("mtasts.fetch.dns")
	addrs, err := f.resolveAddrs(ctx, host)
	dnsSpan.EndErr(err)
	if err != nil || len(addrs) == 0 {
		if err == nil {
			err = fmt.Errorf("no addresses for %s", host)
		}
		return Policy{}, nil, &FetchError{Stage: StageDNS, Err: err}
	}

	port := "443"
	if f.Port != 0 {
		port = fmt.Sprintf("%d", f.Port)
	}

	// Stage 2: TCP.
	dialSpan := f.Obs.StartSpan("mtasts.fetch.tcp_dial")
	dialer := &net.Dialer{}
	var conn net.Conn
	var dialErr error
	for _, addr := range addrs {
		conn, dialErr = dialer.DialContext(ctx, "tcp", net.JoinHostPort(addr, port))
		if dialErr == nil {
			break
		}
	}
	dialSpan.EndErr(dialErr)
	if dialErr != nil {
		return Policy{}, nil, &FetchError{Stage: StageTCP, Err: dialErr}
	}
	defer conn.Close()

	// Stage 3: TLS handshake with PKIX validation for the policy host name.
	tlsConf := &tls.Config{
		ServerName:         host,
		RootCAs:            f.RootCAs,
		MinVersion:         tls.VersionTLS12,
		ClientSessionCache: f.SessionCache,
	}
	if f.Now != nil {
		tlsConf.Time = f.Now
	}
	tlsConn := tls.Client(conn, tlsConf)
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	tlsSpan := f.Obs.StartSpan("mtasts.fetch.tls_handshake")
	if err := tlsConn.HandshakeContext(ctx); err != nil {
		tlsSpan.EndErr(err)
		var leaf *x509.Certificate
		var certErr *tls.CertificateVerificationError
		if errors.As(err, &certErr) && len(certErr.UnverifiedCertificates) > 0 {
			leaf = certErr.UnverifiedCertificates[0]
		}
		return Policy{}, nil, &FetchError{
			Stage:       StageTLS,
			CertProblem: pki.ClassifyVerifyError(err, leaf),
			Err:         err,
		}
	}
	tlsSpan.End()

	// Stage 4: HTTP. A single GET over the established connection; 3xx
	// responses MUST NOT be followed (RFC 8461 §3.3), so any non-200 is an
	// HTTP-stage failure.
	httpSpan := f.Obs.StartSpan("mtasts.fetch.http")
	body, status, contentType, err := httpGet(ctx, tlsConn, host)
	if err != nil {
		httpSpan.EndErr(err)
		return Policy{}, nil, &FetchError{Stage: StageHTTP, HTTPStatus: status, Err: err}
	}
	httpSpan.End()
	// RFC 8461 §3.3: the media type SHOULD be text/plain. Senders in the
	// wild accept other types, so a mismatch is measured (it is a real
	// misconfiguration signal) but does not fail the fetch.
	if !isTextPlain(contentType) {
		f.Obs.Counter("mtasts.fetch.wrong_content_type").Inc()
	}
	if status != http.StatusOK {
		return Policy{}, body, &FetchError{
			Stage:      StageHTTP,
			HTTPStatus: status,
			Err:        fmt.Errorf("HTTP status %d", status),
		}
	}

	// Stage 5: policy syntax.
	parseSpan := f.Obs.StartSpan("mtasts.fetch.parse")
	policy, err := ParsePolicy(body)
	parseSpan.EndErr(err)
	if err != nil {
		return Policy{}, body, &FetchError{Stage: StageSyntax, Err: err}
	}
	return policy, body, nil
}

func (f *Fetcher) resolveAddrs(ctx context.Context, host string) ([]string, error) {
	if f.Resolver != nil {
		return f.Resolver.ResolveAddrs(ctx, host)
	}
	ips, err := net.DefaultResolver.LookupHost(ctx, host)
	if err != nil {
		return nil, err
	}
	return ips, nil
}

// httpGet performs a minimal HTTP/1.1 GET on an established connection and
// returns the body and status code. Using http.ReadResponse keeps header
// handling correct without the redirect-following and connection-pooling
// machinery of http.Client, which RFC 8461 forbids or makes observability
// harder.
func httpGet(ctx context.Context, conn *tls.Conn, host string) ([]byte, int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "https://"+host+WellKnownPath, nil)
	if err != nil {
		return nil, 0, "", err
	}
	req.Header.Set("User-Agent", "mtasts-repro/1.0 (policy fetcher)")
	if err := req.Write(conn); err != nil {
		return nil, 0, "", fmt.Errorf("writing request: %w", err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), req)
	if err != nil {
		return nil, 0, "", fmt.Errorf("reading response: %w", err)
	}
	defer resp.Body.Close()
	contentType := resp.Header.Get("Content-Type")
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxPolicySize+1))
	if err != nil {
		return nil, resp.StatusCode, contentType, fmt.Errorf("reading body: %w", err)
	}
	if len(body) > MaxPolicySize {
		return nil, resp.StatusCode, contentType, ErrPolicyTooLarge
	}
	return body, resp.StatusCode, contentType, nil
}

// isTextPlain reports whether a Content-Type header value names the
// text/plain media type RFC 8461 §3.3 asks for, ignoring parameters
// such as charset.
func isTextPlain(contentType string) bool {
	mediaType, _, _ := strings.Cut(contentType, ";")
	return strings.EqualFold(strings.TrimSpace(mediaType), "text/plain")
}

// IsNoRecord reports whether an error indicates the absence of MTA-STS
// (rather than a broken deployment).
func IsNoRecord(err error) bool { return errors.Is(err, ErrNoRecord) }

// StageOf extracts the retrieval stage from an error chain, or StageNone.
func StageOf(err error) Stage {
	var fe *FetchError
	if errors.As(err, &fe) {
		return fe.Stage
	}
	return StageNone
}

// CertProblemOf extracts the TLS certificate problem from an error chain.
func CertProblemOf(err error) pki.Problem {
	var fe *FetchError
	if errors.As(err, &fe) {
		return fe.CertProblem
	}
	return pki.OK
}
