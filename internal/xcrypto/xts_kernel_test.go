package xcrypto

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"mobiceal/internal/prng"
)

// xtsPath is one way of computing x's bytes, named for test output.
type xtsPath struct {
	name string
	x    *XTS
}

// genericTwin returns x with the assembly kernel taken off: the Go loop in
// process serves every block. Under -tags purego, on other platforms and on
// CPUs without AES-NI x already is that, and the comparisons below hold
// trivially.
func genericTwin(x *XTS) *XTS {
	g := *x
	g.kern = nil
	return &g
}

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// counting512 is the plaintext of the standard's 512-byte vectors: 00..ff
// twice.
func counting512() []byte {
	p := make([]byte, 512)
	for i := range p {
		p[i] = byte(i)
	}
	return p
}

// IEEE Std 1619-2007 Annex B (vector 1 is TestXTSKnownVector). Vectors 2
// and 3 are 32-byte units (the Go loop alone: less than one group of
// eight); 4 and 10 are 512-byte units, four kernel groups each, and
// doubling 31 times carries out of bit 127 in both.
func TestXTSIEEE1619Vectors(t *testing.T) {
	vectors := []struct {
		name     string
		key      string // Key1 || Key2
		sector   uint64
		pt, want []byte
	}{
		{
			name:   "2/XTS-AES-128",
			key:    "11111111111111111111111111111111" + "22222222222222222222222222222222",
			sector: 0x3333333333,
			pt:     bytes.Repeat([]byte{0x44}, 32),
			want:   unhex(t, "c454185e6a16936e39334038acef838bfb186fff7480adc4289382ecd6d394f0"),
		},
		{
			name:   "3/XTS-AES-128",
			key:    "fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0" + "22222222222222222222222222222222",
			sector: 0x3333333333,
			pt:     bytes.Repeat([]byte{0x44}, 32),
			want:   unhex(t, "af85336b597afc1a900b2eb21ec949d292df4c047e0b21532186a5971a227a89"),
		},
		{
			name: "4/XTS-AES-128/512B",
			key:  "27182818284590452353602874713526" + "31415926535897932384626433832795",
			pt:   counting512(),
			want: unhex(t, "27a7479befa1d476489f308cd4cfa6e2a96e4bbe3208ff25287dd3819616e89c"+
				"c78cf7f5e543445f8333d8fa7f56000005279fa5d8b5e4ad40e736ddb4d35412"+
				"328063fd2aab53e5ea1e0a9f332500a5df9487d07a5c92cc512c8866c7e860ce"+
				"93fdf166a24912b422976146ae20ce846bb7dc9ba94a767aaef20c0d61ad0265"+
				"5ea92dc4c4e41a8952c651d33174be51a10c421110e6d81588ede82103a252d8"+
				"a750e8768defffed9122810aaeb99f9172af82b604dc4b8e51bcb08235a6f434"+
				"1332e4ca60482a4ba1a03b3e65008fc5da76b70bf1690db4eae29c5f1badd03c"+
				"5ccf2a55d705ddcd86d449511ceb7ec30bf12b1fa35b913f9f747a8afd1b130e"+
				"94bff94effd01a91735ca1726acd0b197c4e5b03393697e126826fb6bbde8ecc"+
				"1e08298516e2c9ed03ff3c1b7860f6de76d4cecd94c8119855ef5297ca67e9f3"+
				"e7ff72b1e99785ca0a7e7720c5b36dc6d72cac9574c8cbbc2f801e23e56fd344"+
				"b07f22154beba0f08ce8891e643ed995c94d9a69c9f1b5f499027a78572aeebd"+
				"74d20cc39881c213ee770b1010e4bea718846977ae119f7a023ab58cca0ad752"+
				"afe656bb3c17256a9f6e9bf19fdd5a38fc82bbe872c5539edb609ef4f79c203e"+
				"bb140f2e583cb2ad15b4aa5b655016a8449277dbd477ef2c8d6c017db738b18d"+
				"eb4a427d1923ce3ff262735779a418f20a282df920147beabe421ee5319d0568"),
		},
		{
			name: "10/XTS-AES-256/512B",
			key: "2718281828459045235360287471352662497757247093699959574966967627" +
				"3141592653589793238462643383279502884197169399375105820974944592",
			sector: 0xff,
			pt:     counting512(),
			want: unhex(t, "1c3b3a102f770386e4836c99e370cf9bea00803f5e482357a4ae12d414a3e63b"+
				"5d31e276f8fe4a8d66b317f9ac683f44680a86ac35adfc3345befecb4bb188fd"+
				"5776926c49a3095eb108fd1098baec70aaa66999a72a82f27d848b21d4a741b0"+
				"c5cd4d5fff9dac89aeba122961d03a757123e9870f8acf1000020887891429ca"+
				"2a3e7a7d7df7b10355165c8b9a6d0a7de8b062c4500dc4cd120c0f7418dae3d0"+
				"b5781c34803fa75421c790dfe1de1834f280d7667b327f6c8cd7557e12ac3a0f"+
				"93ec05c52e0493ef31a12d3d9260f79a289d6a379bc70c50841473d1a8cc81ec"+
				"583e9645e07b8d9670655ba5bbcfecc6dc3966380ad8fecb17b6ba02469a020a"+
				"84e18e8f84252070c13e9f1f289be54fbc481457778f616015e1327a02b140f1"+
				"505eb309326d68378f8374595c849d84f4c333ec4423885143cb47bd71c5edae"+
				"9be69a2ffeceb1bec9de244fbe15992b11b77c040f12bd8f6a975a44a0f90c29"+
				"a9abc3d4d893927284c58754cce294529f8614dcd2aba991925fedc4ae74ffac"+
				"6e333b93eb4aff0479da9a410e4450e0dd7ae4c6e2910900575da401fc07059f"+
				"645e8b7e9bfdef33943054ff84011493c27b3429eaedb4ed5376441a77ed4385"+
				"1ad77f16f541dfd269d50d6a5f14fb0aab1cbb4c1550be97f7ab4066193c4caa"+
				"773dad38014bd2092fa755c824bb5e54c4f36ffda9fcea70b9c6e693e148c151"),
		},
	}
	for _, v := range vectors {
		t.Run(v.name, func(t *testing.T) {
			x, err := NewXTS(unhex(t, v.key))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				path string
				x    *XTS
			}{{"selected", x}, {"generic", genericTwin(x)}} {
				got := make([]byte, len(v.pt))
				if err := c.x.EncryptSector(v.sector, got, v.pt); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, v.want) {
					t.Errorf("%s path: ciphertext\n got %x\nwant %x", c.path, got, v.want)
				}
				if err := c.x.DecryptSector(v.sector, got, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, v.pt) {
					t.Errorf("%s path: decrypting the vector's ciphertext gives %x", c.path, got)
				}
			}
		})
	}
}

// differential runs one data unit through every kernel path the host has
// (kernelPaths) and through the Go loop, disjoint and in place, in both
// directions, and through each path's inverse of the other's output (an
// image written by one build must open under the other). off shifts every
// buffer off its natural alignment.
func differential(t testing.TB, key []byte, sector uint64, data []byte, off int) {
	t.Helper()
	x, err := NewXTS(key)
	if err != nil {
		t.Fatal(err)
	}
	g := genericTwin(x)
	for _, p := range kernelPaths(x) {
		differentialPath(t, p, g, sector, data, off)
	}
}

// differentialPath is differential for one path p against the Go loop g.
func differentialPath(t testing.TB, p xtsPath, g *XTS, sector uint64, data []byte, off int) {
	t.Helper()
	x := p.x
	n := len(data)
	buf := func() []byte { return make([]byte, n+off)[off:] }

	want, got := buf(), buf()
	if err := g.EncryptSector(sector, want, data); err != nil {
		t.Fatal(err)
	}
	if err := x.EncryptSector(sector, got, data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encrypt, %d bytes at offset %d: kernel and Go loop disagree", p.name, n, off)
	}
	inplace := buf()
	copy(inplace, data)
	if err := x.EncryptSector(sector, inplace, inplace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inplace, want) {
		t.Fatalf("%s: encrypt in place, %d bytes at offset %d: differs from the Go loop", p.name, n, off)
	}

	// data read as ciphertext: the decrypt direction on arbitrary input.
	if err := g.DecryptSector(sector, want, data); err != nil {
		t.Fatal(err)
	}
	if err := x.DecryptSector(sector, got, data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: decrypt, %d bytes at offset %d: kernel and Go loop disagree", p.name, n, off)
	}
	copy(inplace, data)
	if err := x.DecryptSector(sector, inplace, inplace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inplace, want) {
		t.Fatalf("%s: decrypt in place, %d bytes at offset %d: differs from the Go loop", p.name, n, off)
	}

	// Written by one, read by the other.
	if err := g.EncryptSector(sector, got, data); err != nil {
		t.Fatal(err)
	}
	if err := x.DecryptSector(sector, got, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("%s: %d bytes at offset %d: kernel does not decrypt what the Go loop encrypted", p.name, n, off)
	}
	if err := x.EncryptSector(sector, got, data); err != nil {
		t.Fatal(err)
	}
	if err := g.DecryptSector(sector, got, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("%s: %d bytes at offset %d: Go loop does not decrypt what the kernel encrypted", p.name, n, off)
	}
}

// TestXTSPathsStraddleGroups runs every path over the lengths where the
// split between the 16-block kernel (256-byte groups), the 8-block kernel
// (128-byte groups) and the Go loop moves: one block, one group of eight
// plus a block, one of sixteen plus a block, sixteen plus eight, and a
// sector plus three blocks.
func TestXTSPathsStraddleGroups(t *testing.T) {
	src := prng.NewSource(37)
	data := make([]byte, 4096+48+8)
	for _, keyLen := range []int{32, 64} {
		key := make([]byte, keyLen)
		_, _ = src.Read(key) // cannot fail
		for _, n := range []int{16, 144, 256, 272, 384, 4096 + 48} {
			for _, off := range []int{0, 8} {
				_, _ = src.Read(data) // cannot fail
				differential(t, key, src.Uint64(), data[off:off+n], off)
			}
		}
	}
}

// TestXTSKernelMatchesGeneric walks the group/tail split: every length from
// one block to two sectors that is not a whole number of groups (plus the
// whole ones the ledger uses), both key sizes, aligned and unaligned.
func TestXTSKernelMatchesGeneric(t *testing.T) {
	src := prng.NewSource(16)
	data := make([]byte, 8192+8)
	for _, keyLen := range []int{32, 64} {
		key := make([]byte, keyLen)
		_, _ = src.Read(key) // cannot fail
		for n := 16; n <= 8192; n += 16 {
			if n%128 == 0 && n != 512 && n != 4096 && n != 8192 {
				continue
			}
			for _, off := range []int{0, 1, 8} {
				_, _ = src.Read(data) // cannot fail
				differential(t, key, src.Uint64(), data[off:off+n], off)
			}
		}
	}
}

func TestSectorBuffersRejectInexactOverlap(t *testing.T) {
	key := make([]byte, 64)
	xts, err := NewXTS(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*XTS{xts} {
		name := fmt.Sprintf("%T", c)
		buf := make([]byte, 2*4096)
		for _, shift := range []int{16, 4080} {
			lo, hi := buf[:4096], buf[shift:shift+4096]
			if err := c.EncryptSector(1, hi, lo); !errors.Is(err, ErrBufferOverlap) {
				t.Errorf("%s: encrypt into src+%d: %v, want ErrBufferOverlap", name, shift, err)
			}
			if err := c.DecryptSector(1, lo, hi); !errors.Is(err, ErrBufferOverlap) {
				t.Errorf("%s: decrypt into src-%d: %v, want ErrBufferOverlap", name, shift, err)
			}
		}
		// Touching is not overlapping, and the same slice stays legal.
		if err := c.EncryptSector(1, buf[4096:], buf[:4096]); err != nil {
			t.Errorf("%s: adjacent buffers: %v", name, err)
		}
		plain := make([]byte, 4096)
		_, _ = prng.NewSource(3).Read(plain) // cannot fail
		same := bytes.Clone(plain)
		if err := c.EncryptSector(7, same, same); err != nil {
			t.Fatalf("%s: in place: %v", name, err)
		}
		if bytes.Equal(same, plain) {
			t.Errorf("%s: in-place encryption left the plaintext", name)
		}
		if err := c.DecryptSector(7, same, same); err != nil {
			t.Fatalf("%s: in place: %v", name, err)
		}
		if !bytes.Equal(same, plain) {
			t.Errorf("%s: in-place round trip lost the plaintext", name)
		}
	}
}

// FuzzXTSKernel is the differential test on arbitrary (key, sector, data):
// data is cut to whole blocks and capped at two sectors, key to one of the
// two accepted sizes.
func FuzzXTSKernel(f *testing.F) {
	f.Add(make([]byte, 32), uint64(0), make([]byte, 512))
	f.Add(bytes.Repeat([]byte{0xa5}, 64), ^uint64(0), bytes.Repeat([]byte{0xff}, 4096+48))
	f.Add([]byte("short key"), uint64(1)<<63, counting512()[:144])
	f.Fuzz(func(t *testing.T, key []byte, sector uint64, data []byte) {
		full := make([]byte, 64)
		copy(full, key)
		if len(key) <= 32 {
			full = full[:32]
		}
		data = data[:min(len(data), 8192)&^15]
		if len(data) == 0 {
			return
		}
		differential(t, full, sector, data, int(binary.LittleEndian.Uint16(full)%3)*4)
	})
}

func benchSector(b *testing.B, x *XTS, encrypt bool) {
	buf := make([]byte, 4096)
	op := x.DecryptSector
	if encrypt {
		op = x.EncryptSector
	}
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(uint64(i), buf, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchXTS4K times one 4 KiB sector under the 64-byte key dm-crypt volumes
// carry: the path NewXTS selected, and the Go loop it replaces.
func benchXTS4K(b *testing.B, encrypt bool) {
	x, err := NewXTS(make([]byte, 64))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("selected", func(b *testing.B) { benchSector(b, x, encrypt) })
	for _, p := range kernelPaths(x) {
		if p.x != x {
			b.Run(p.name, func(b *testing.B) { benchSector(b, p.x, encrypt) })
		}
	}
	b.Run("generic", func(b *testing.B) { benchSector(b, genericTwin(x), encrypt) })
}

func BenchmarkXTSEncrypt4K(b *testing.B) { benchXTS4K(b, true) }
func BenchmarkXTSDecrypt4K(b *testing.B) { benchXTS4K(b, false) }
