package dnsmsg

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustPack(t *testing.T, m *Message) []byte {
	t.Helper()
	b, err := m.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	return b
}

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	b := mustPack(t, m)
	got, err := Unpack(b)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	return got
}

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "_mta-sts.example.com", TypeTXT)
	got := roundTrip(t, q)
	if got.Header.ID != 0x1234 || got.Header.Response || !got.Header.RecursionDesired {
		t.Errorf("header mismatch: %+v", got.Header)
	}
	if len(got.Questions) != 1 {
		t.Fatalf("got %d questions", len(got.Questions))
	}
	if got.Questions[0].Name != "_mta-sts.example.com" || got.Questions[0].Type != TypeTXT {
		t.Errorf("question = %+v", got.Questions[0])
	}
}

func TestResponseAllTypesRoundTrip(t *testing.T) {
	m := &Message{
		Header: Header{ID: 7, Response: true, Authoritative: true, RCode: RCodeSuccess},
		Questions: []Question{
			{Name: "example.com", Type: TypeANY, Class: ClassIN},
		},
		Answers: []RR{
			{Name: "example.com", Type: TypeA, Class: ClassIN, TTL: 300,
				Data: AData{Addr: netip.MustParseAddr("192.0.2.1")}},
			{Name: "example.com", Type: TypeAAAA, Class: ClassIN, TTL: 300,
				Data: AAAAData{Addr: netip.MustParseAddr("2001:db8::1")}},
			{Name: "example.com", Type: TypeMX, Class: ClassIN, TTL: 3600,
				Data: MXData{Preference: 10, Host: "mail.example.com"}},
			{Name: "_mta-sts.example.com", Type: TypeTXT, Class: ClassIN, TTL: 60,
				Data: NewTXT("v=STSv1; id=20240431;")},
			{Name: "mta-sts.example.com", Type: TypeCNAME, Class: ClassIN, TTL: 60,
				Data: CNAMEData{Target: "mta-sts.provider.com"}},
			{Name: "example.com", Type: TypeNS, Class: ClassIN, TTL: 86400,
				Data: NSData{Host: "ns1.example.com"}},
			{Name: "_25._tcp.mail.example.com", Type: TypeTLSA, Class: ClassIN, TTL: 3600,
				Data: TLSAData{Usage: 3, Selector: 1, MatchingType: 1, CertData: []byte{1, 2, 3, 4}}},
		},
		Authority: []RR{
			{Name: "example.com", Type: TypeSOA, Class: ClassIN, TTL: 900,
				Data: SOAData{MName: "ns1.example.com", RName: "hostmaster.example.com",
					Serial: 2024093001, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300}},
		},
	}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round-trip mismatch:\n got: %+v\nwant: %+v", got, m)
	}
}

func TestCompressionShrinksMessage(t *testing.T) {
	mk := func(n int) *Message {
		m := &Message{Header: Header{Response: true}}
		m.Questions = []Question{{Name: "very-long-subdomain-name.example.com", Type: TypeMX, Class: ClassIN}}
		for i := 0; i < n; i++ {
			m.Answers = append(m.Answers, RR{
				Name: "very-long-subdomain-name.example.com", Type: TypeMX, Class: ClassIN, TTL: 60,
				Data: MXData{Preference: uint16(i), Host: "mx.example.net"},
			})
		}
		return m
	}
	one := mustPack(t, mk(1))
	five := mustPack(t, mk(5))
	// With owner-name compression, each extra RR costs only a 2-byte
	// pointer for the owner, not the full 38-byte name.
	perRR := (len(five) - len(one)) / 4
	if perRR > 2+2+2+4+2+2+16+1 {
		t.Errorf("per-RR cost %d suggests compression is not applied", perRR)
	}
	// And the pointers must decode back to the full name.
	m, err := Unpack(five)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	for _, rr := range m.Answers {
		if rr.Name != "very-long-subdomain-name.example.com" {
			t.Errorf("decoded owner = %q", rr.Name)
		}
	}
}

func TestUnpackRejectsPointerLoop(t *testing.T) {
	// Craft header + a question whose name is a pointer to itself.
	b := make([]byte, 12)
	b[5] = 1 // QDCOUNT = 1
	b = append(b, 0xC0, 12)
	b = append(b, 0, 16, 0, 1)
	if _, err := Unpack(b); err == nil {
		t.Fatal("Unpack accepted a pointer loop")
	}
}

func TestUnpackRejectsTruncated(t *testing.T) {
	m := NewQuery(9, "example.com", TypeA)
	b := mustPack(t, m)
	for cut := 1; cut < len(b); cut++ {
		if _, err := Unpack(b[:cut]); err == nil {
			t.Errorf("Unpack accepted message truncated to %d bytes", cut)
		}
	}
}

func TestPackRejectsBadNames(t *testing.T) {
	long := strings.Repeat("a", 64) + ".com"
	cases := []string{long, strings.Repeat("abcdefgh.", 32) + "com", "a..b"}
	for _, name := range cases {
		m := NewQuery(1, name, TypeA)
		if _, err := m.Pack(); err == nil {
			t.Errorf("Pack accepted bad name %q", name)
		}
	}
}

func TestTXTSplitting(t *testing.T) {
	long := strings.Repeat("x", 600)
	d := NewTXT(long)
	if len(d.Strings) != 3 || len(d.Strings[0]) != 255 || len(d.Strings[2]) != 90 {
		t.Fatalf("NewTXT split = %v lengths", len(d.Strings))
	}
	if d.Joined() != long {
		t.Error("Joined does not reconstruct the value")
	}
	if NewTXT("").Strings[0] != "" {
		t.Error("NewTXT(\"\") should produce one empty character-string")
	}
}

func TestRCodeAndTypeStrings(t *testing.T) {
	if TypeTXT.String() != "TXT" || TypeTLSA.String() != "TLSA" || Type(999).String() != "TYPE999" {
		t.Error("Type.String mismatch")
	}
	if RCodeNXDomain.String() != "NXDOMAIN" || RCode(15).String() != "RCODE15" {
		t.Error("RCode.String mismatch")
	}
	for _, s := range []string{"A", "NS", "CNAME", "SOA", "MX", "TXT", "AAAA", "TLSA", "ANY"} {
		typ, err := ParseType(s)
		if err != nil || typ.String() != s {
			t.Errorf("ParseType(%q) round-trip failed: %v", s, err)
		}
	}
	if _, err := ParseType("BOGUS"); err == nil {
		t.Error("ParseType accepted BOGUS")
	}
}

// randomName builds a random but valid domain name from the given source.
func randomName(r *rand.Rand) string {
	nLabels := 1 + r.Intn(4)
	labels := make([]string, nLabels)
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_"
	for i := range labels {
		n := 1 + r.Intn(12)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
		labels[i] = sb.String()
	}
	return strings.Join(labels, ".")
}

// Property: any well-formed message round-trips through Pack/Unpack.
func TestMessageRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func() bool {
		m := &Message{Header: Header{
			ID:       uint16(r.Uint32()),
			Response: r.Intn(2) == 0, Authoritative: r.Intn(2) == 0,
			RecursionDesired: r.Intn(2) == 0, RCode: RCode(r.Intn(6)),
		}}
		m.Questions = []Question{{Name: randomName(r), Type: TypeTXT, Class: ClassIN}}
		nRR := r.Intn(6)
		for i := 0; i < nRR; i++ {
			owner := randomName(r)
			switch r.Intn(5) {
			case 0:
				var a4 [4]byte
				r.Read(a4[:])
				m.Answers = append(m.Answers, RR{Name: owner, Type: TypeA, Class: ClassIN,
					TTL: r.Uint32() % 1e6, Data: AData{Addr: netip.AddrFrom4(a4)}})
			case 1:
				m.Answers = append(m.Answers, RR{Name: owner, Type: TypeMX, Class: ClassIN,
					TTL: r.Uint32() % 1e6, Data: MXData{Preference: uint16(r.Uint32()), Host: randomName(r)}})
			case 2:
				m.Answers = append(m.Answers, RR{Name: owner, Type: TypeTXT, Class: ClassIN,
					TTL: r.Uint32() % 1e6, Data: NewTXT(strings.Repeat("v", r.Intn(300)))})
			case 3:
				m.Answers = append(m.Answers, RR{Name: owner, Type: TypeCNAME, Class: ClassIN,
					TTL: r.Uint32() % 1e6, Data: CNAMEData{Target: randomName(r)}})
			case 4:
				cd := make([]byte, r.Intn(40))
				r.Read(cd)
				if len(cd) == 0 {
					cd = nil // decoder yields nil for empty RDATA remainder
				}
				m.Answers = append(m.Answers, RR{Name: owner, Type: TypeTLSA, Class: ClassIN,
					TTL: r.Uint32() % 1e6, Data: TLSAData{Usage: 3, Selector: 1, MatchingType: 1, CertData: cd}})
			}
		}
		b, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Unpack never panics on arbitrary bytes.
func TestUnpackFuzzNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Unpack(b) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: mutated valid messages never panic and either parse or error.
func TestUnpackMutationNoPanic(t *testing.T) {
	m := &Message{
		Header:    Header{ID: 1, Response: true},
		Questions: []Question{{Name: "example.com", Type: TypeTXT, Class: ClassIN}},
		Answers: []RR{{Name: "example.com", Type: TypeTXT, Class: ClassIN, TTL: 60,
			Data: NewTXT("v=STSv1; id=1")}},
	}
	b, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		mb := bytes.Clone(b)
		for k := 0; k < 1+r.Intn(4); k++ {
			mb[r.Intn(len(mb))] = byte(r.Intn(256))
		}
		_, _ = Unpack(mb)
	}
}

func TestRRString(t *testing.T) {
	rr := RR{Name: "example.com", Type: TypeMX, Class: ClassIN, TTL: 60,
		Data: MXData{Preference: 10, Host: "mail.example.com"}}
	want := "example.com 60 IN MX 10 mail.example.com"
	if rr.String() != want {
		t.Errorf("RR.String() = %q, want %q", rr.String(), want)
	}
}

func TestPackNilRData(t *testing.T) {
	m := &Message{Answers: []RR{{Name: "example.com", Type: TypeA, Class: ClassIN}}}
	if _, err := m.Pack(); err == nil {
		t.Error("Pack accepted nil RDATA")
	}
}

func TestAddressTypeValidation(t *testing.T) {
	m := &Message{Answers: []RR{{Name: "x.com", Type: TypeA, Class: ClassIN,
		Data: AData{Addr: netip.MustParseAddr("2001:db8::1")}}}}
	if _, err := m.Pack(); err == nil {
		t.Error("Pack accepted IPv6 address in A record")
	}
	m = &Message{Answers: []RR{{Name: "x.com", Type: TypeAAAA, Class: ClassIN,
		Data: AAAAData{Addr: netip.MustParseAddr("192.0.2.1")}}}}
	if _, err := m.Pack(); err == nil {
		t.Error("Pack accepted IPv4 address in AAAA record")
	}
}

// TestUnpackDoesNotAliasInput pins the precondition that lets the
// resolver recycle its UDP receive buffer: Unpack copies every name,
// string and byte slice it keeps, so overwriting the input afterwards
// must leave the decoded Message untouched. One record of each decoded
// RDATA type is present, plus an unknown type that lands in RawData.
func TestUnpackDoesNotAliasInput(t *testing.T) {
	m := &Message{
		Header:    Header{ID: 9, Response: true, Authoritative: true},
		Questions: []Question{{Name: "example.com", Type: TypeANY, Class: ClassIN}},
		Answers: []RR{
			{Name: "example.com", Type: TypeA, Class: ClassIN, TTL: 300,
				Data: AData{Addr: netip.MustParseAddr("192.0.2.1")}},
			{Name: "example.com", Type: TypeAAAA, Class: ClassIN, TTL: 300,
				Data: AAAAData{Addr: netip.MustParseAddr("2001:db8::1")}},
			{Name: "example.com", Type: TypeNS, Class: ClassIN, TTL: 86400,
				Data: NSData{Host: "ns1.example.com"}},
			{Name: "mta-sts.example.com", Type: TypeCNAME, Class: ClassIN, TTL: 60,
				Data: CNAMEData{Target: "mta-sts.provider.com"}},
			{Name: "example.com", Type: TypeMX, Class: ClassIN, TTL: 3600,
				Data: MXData{Preference: 10, Host: "mail.example.com"}},
			{Name: "_mta-sts.example.com", Type: TypeTXT, Class: ClassIN, TTL: 60,
				Data: TXTData{Strings: []string{"v=STSv1; ", "id=20240431;"}}},
			{Name: "example.com", Type: TypeDNSKEY, Class: ClassIN, TTL: 3600,
				Data: DNSKEYData{Flags: 257, Protocol: 3, Algorithm: AlgorithmECDSAP256SHA256,
					PublicKey: []byte{1, 2, 3, 4, 5, 6, 7, 8}}},
			{Name: "example.com", Type: TypeDS, Class: ClassIN, TTL: 3600,
				Data: DSData{KeyTag: 12345, Algorithm: 13, DigestType: DigestSHA256,
					Digest: []byte{9, 10, 11, 12}}},
			{Name: "example.com", Type: TypeRRSIG, Class: ClassIN, TTL: 3600,
				Data: RRSIGData{TypeCovered: TypeMX, Algorithm: 13, Labels: 2,
					OrigTTL: 3600, Expiration: 1900000000, Inception: 1700000000,
					KeyTag: 12345, SignerName: "example.com", Signature: []byte{13, 14, 15, 16}}},
			{Name: "_25._tcp.mail.example.com", Type: TypeTLSA, Class: ClassIN, TTL: 3600,
				Data: TLSAData{Usage: 3, Selector: 1, MatchingType: 1, CertData: []byte{17, 18, 19, 20}}},
			{Name: "example.com", Type: Type(65280), Class: ClassIN, TTL: 60,
				Data: RawData{RType: Type(65280), Bytes: []byte{21, 22, 23}}},
		},
		Authority: []RR{
			{Name: "example.com", Type: TypeSOA, Class: ClassIN, TTL: 900,
				Data: SOAData{MName: "ns1.example.com", RName: "hostmaster.example.com",
					Serial: 2024093001, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300}},
		},
	}
	wire := mustPack(t, m)
	got, err := Unpack(wire)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	// The earlier copy is decoded from a separate buffer, so it cannot
	// share memory with wire either.
	want, err := Unpack(bytes.Clone(wire))
	if err != nil {
		t.Fatalf("Unpack copy: %v", err)
	}
	if !reflect.DeepEqual(want, m) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", want, m)
	}
	for i := range wire {
		wire[i] = 0xFF
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("overwriting the input changed the unpacked message:\n got %+v\nwant %+v", got, want)
	}
}
