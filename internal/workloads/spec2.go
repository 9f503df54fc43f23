package workloads

import (
	"math"

	"teasim/internal/asm"
	"teasim/internal/isa"
)

// SPEC-CPU2017-like kernels, part 2: deepsjeng, leela, exchange2, xz, nab.

// --- deepsjeng ---

// Deepsjeng is a transposition-table / alpha-beta-flavoured kernel: hashed
// position probes with hit/miss and score-window branches that depend on
// pseudo-random search state.
func Deepsjeng() Workload {
	const tblBits = 12
	build := func(scale int) *isa.Program {
		iters := specIters(scale, 40) * 8192
		b := asm.NewBuilder()
		l := newLayout()
		keys := l.words(1 << tblBits)
		vals := l.words(1 << tblBits)

		b.Label("main")
		b.LiU(isa.R1, keys)
		b.LiU(isa.R2, vals)
		b.Li(isa.R3, 0xDEE95E19) // rng / position
		b.Li(isa.R20, 0)         // alpha
		b.Li(isa.R21, 0)         // hits
		b.Li(isa.R22, 0)         // prunes
		b.Li(isa.R23, 0)         // i
		b.Li(isa.R24, int64(iters))
		b.Label("loop")
		emitXorshift(b, isa.R3, isa.R28)
		// h = pos * golden; idx = h >> (64-tblBits)
		b.Li(isa.R10, -0x61c8864680b583eb) // 0x9e3779b97f4a7c15 as int64
		b.Mul(isa.R4, isa.R3, isa.R10)
		b.ShrI(isa.R5, isa.R4, 64-tblBits) // idx
		idx(b, isa.R6, isa.R1, isa.R5)
		b.Ld(isa.R7, isa.R6, 0)      // stored key
		b.Beq(isa.R7, isa.R4, "hit") // H2P: table hit?
		// miss: score = h & 1023 - 512; store entry
		b.St(isa.R6, 0, isa.R4)
		b.AndI(isa.R8, isa.R4, 1023)
		b.AddI(isa.R8, isa.R8, -512)
		idx(b, isa.R9, isa.R2, isa.R5)
		b.St(isa.R9, 0, isa.R8)
		b.Jmp("score")
		b.Label("hit")
		b.AddI(isa.R21, isa.R21, 1)
		idx(b, isa.R9, isa.R2, isa.R5)
		b.Ld(isa.R8, isa.R9, 0)
		b.Label("score")
		// alpha-beta window update (data-dependent branch ladder)
		b.Bge(isa.R20, isa.R8, "noraise") // H2P: score > alpha?
		b.Mov(isa.R20, isa.R8)
		b.Li(isa.R11, 400)
		b.Blt(isa.R20, isa.R11, "noraise") // beta cutoff
		b.AddI(isa.R22, isa.R22, 1)
		b.ShrI(isa.R20, isa.R20, 1) // window reset
		b.Label("noraise")
		// periodic alpha decay keeps the window active
		b.AndI(isa.R11, isa.R23, 63)
		b.Bnez(isa.R11, "next")
		b.AddI(isa.R20, isa.R20, -3)
		b.Label("next")
		b.AddI(isa.R23, isa.R23, 1)
		b.Blt(isa.R23, isa.R24, "loop")
		storeResult(b, 0, isa.R21)
		storeResult(b, 1, isa.R22)
		b.Li(isa.R10, 0)
		b.Add(isa.R10, isa.R20, isa.R0)
		storeResult(b, 2, isa.R10)
		b.Halt()
		return b.MustBuild()
	}
	expected := func(scale int) []uint64 {
		iters := specIters(scale, 40) * 8192
		keys := make([]uint64, 1<<tblBits)
		vals := make([]uint64, 1<<tblBits)
		r := newRng(0)
		*r = rng(0xDEE95E19)
		var alpha int64
		var hits, prunes uint64
		for i := 0; i < iters; i++ {
			pos := r.next()
			h := pos * 0x9e3779b97f4a7c15
			idx := h >> (64 - tblBits)
			var score int64
			if keys[idx] == h {
				hits++
				score = int64(vals[idx])
			} else {
				keys[idx] = h
				score = int64(h&1023) - 512
				vals[idx] = uint64(score)
			}
			if score > alpha {
				alpha = score
				if alpha >= 400 {
					prunes++
					alpha >>= 1
				}
			}
			if i&63 == 0 {
				alpha -= 3
			}
		}
		return []uint64{hits, prunes, uint64(alpha)}
	}
	return Workload{Name: "deepsjeng", Flow: Complex, Build: build, Expected: expected}
}

// --- leela ---

// Leela is a Monte-Carlo-playout-flavoured kernel: random moves on a board
// with occupancy and liberty checks (data-dependent branch nest) and a
// floating-point UCT-style comparison for move selection.
func Leela() Workload {
	const bsize = 19
	const cells = bsize * bsize
	build := func(scale int) *isa.Program {
		moves := specIters(scale, 30) * 8192
		b := asm.NewBuilder()
		l := newLayout()
		board := l.words(cells)
		wins := l.words(4)
		visits := l.words(4)

		b.Label("main")
		b.LiU(isa.R1, board)
		b.LiU(isa.R2, wins)
		b.LiU(isa.R3, visits)
		b.Li(isa.R4, 0x1EE1A) // rng
		b.Li(isa.R20, 0)      // placed
		b.Li(isa.R21, 0)      // rejected
		b.Li(isa.R22, 0)      // move counter
		b.Li(isa.R23, int64(moves))
		// visits[i] = 1 to avoid div by zero
		b.Li(isa.R8, 0)
		b.Label("vinit")
		idx(b, isa.R10, isa.R3, isa.R8)
		b.Li(isa.R11, 1)
		b.St(isa.R10, 0, isa.R11)
		b.AddI(isa.R8, isa.R8, 1)
		b.SltI(isa.R11, isa.R8, 4)
		b.Bnez(isa.R11, "vinit")

		b.Label("move")
		emitXorshift(b, isa.R4, isa.R28)
		b.LiU(isa.R10, cells)
		b.Rem(isa.R5, isa.R4, isa.R10) // cell (rng state is "positive enough")
		b.Bge(isa.R5, isa.R0, "cellok")
		b.Add(isa.R5, isa.R5, isa.R10)
		b.Label("cellok")
		idx(b, isa.R6, isa.R1, isa.R5)
		b.Ld(isa.R7, isa.R6, 0)
		b.Bnez(isa.R7, "occupied") // H2P: cell occupied?
		// liberty check: count occupied orthogonal neighbours
		b.Li(isa.R9, 0)
		for d, off := range []int64{-1, 1, -bsize, bsize} {
			lbl := "nb" + string(rune('0'+d))
			b.AddI(isa.R11, isa.R5, off)
			b.Blt(isa.R11, isa.R0, lbl)
			b.Li(isa.R12, cells)
			b.Bge(isa.R11, isa.R12, lbl)
			idx(b, isa.R12, isa.R1, isa.R11)
			b.Ld(isa.R13, isa.R12, 0)
			b.Beqz(isa.R13, lbl)
			b.AddI(isa.R9, isa.R9, 1)
			b.Label(lbl)
		}
		b.SltI(isa.R10, isa.R9, 4)
		b.Beqz(isa.R10, "occupied") // suicide: all four taken
		// place stone: colour from move parity
		b.AndI(isa.R11, isa.R22, 1)
		b.AddI(isa.R11, isa.R11, 1)
		b.St(isa.R6, 0, isa.R11)
		b.AddI(isa.R20, isa.R20, 1)
		// UCT-ish bookkeeping on 4 arms: arm = cell & 3
		b.AndI(isa.R12, isa.R5, 3)
		idx(b, isa.R13, isa.R3, isa.R12)
		b.Ld(isa.R14, isa.R13, 0)
		b.AddI(isa.R14, isa.R14, 1)
		b.St(isa.R13, 0, isa.R14)
		idx(b, isa.R15, isa.R2, isa.R12)
		b.Ld(isa.R16, isa.R15, 0)
		b.AndI(isa.R17, isa.R4, 1)
		b.Add(isa.R16, isa.R16, isa.R17)
		b.St(isa.R15, 0, isa.R16)
		// fp compare: wins/visits > 0.5 → reward branch (H2P, fp)
		b.FCvt(isa.R16, isa.R16)
		b.FCvt(isa.R14, isa.R14)
		b.FDiv(isa.R16, isa.R16, isa.R14)
		b.Li(isa.R17, int64(math.Float64bits(0.5)))
		b.FLt(isa.R18, isa.R17, isa.R16)
		b.Beqz(isa.R18, "next")
		b.AddI(isa.R20, isa.R20, 1)
		b.Jmp("next")
		b.Label("occupied")
		b.AddI(isa.R21, isa.R21, 1)
		// periodic board clear keeps the game going
		b.AndI(isa.R11, isa.R21, 1023)
		b.Bnez(isa.R11, "next")
		b.Li(isa.R8, 0)
		b.Label("clear")
		idx(b, isa.R10, isa.R1, isa.R8)
		b.St(isa.R10, 0, isa.R0)
		b.AddI(isa.R8, isa.R8, 1)
		b.Li(isa.R10, cells)
		b.Blt(isa.R8, isa.R10, "clear")
		b.Label("next")
		b.AddI(isa.R22, isa.R22, 1)
		b.Blt(isa.R22, isa.R23, "move")
		storeResult(b, 0, isa.R20)
		storeResult(b, 1, isa.R21)
		b.Halt()
		return b.MustBuild()
	}
	expected := func(scale int) []uint64 {
		moves := specIters(scale, 30) * 8192
		board := make([]uint64, cells)
		wins := make([]uint64, 4)
		visits := []uint64{1, 1, 1, 1}
		r := newRng(0)
		*r = rng(0x1EE1A)
		var placed, rejected uint64
		for mv := 0; mv < moves; mv++ {
			x := r.next()
			cell := int64(x) % cells
			if cell < 0 {
				cell += cells
			}
			if board[cell] != 0 {
				rejected++
				if rejected&1023 == 0 {
					for i := range board {
						board[i] = 0
					}
				}
				continue
			}
			occ := 0
			for _, off := range []int64{-1, 1, -bsize, bsize} {
				nb := cell + off
				if nb < 0 || nb >= cells {
					continue
				}
				if board[nb] != 0 {
					occ++
				}
			}
			if occ >= 4 {
				rejected++
				if rejected&1023 == 0 {
					for i := range board {
						board[i] = 0
					}
				}
				continue
			}
			board[cell] = uint64(mv&1) + 1
			placed++
			arm := cell & 3
			visits[arm]++
			wins[arm] += x & 1
			if 0.5 < float64(wins[arm])/float64(visits[arm]) {
				placed++
			}
		}
		return []uint64{placed, rejected}
	}
	return Workload{Name: "leela", Flow: Complex, Build: build, Expected: expected}
}

// --- exchange2 ---

// Exchange2 is a recursive backtracking kernel (N-queens with bitmask
// constraints): deep call/ret nesting with data-dependent pruning branches.
func Exchange2() Workload {
	build := func(scale int) *isa.Program {
		n := 8
		if scale >= 1 {
			n = 10
		}
		reps := 1
		if scale > 1 {
			reps = scale
		}
		b := asm.NewBuilder()

		b.Label("main")
		b.LiU(isa.SP, 0x800000)
		b.Li(isa.R20, 0) // solutions
		b.Li(isa.R26, int64(n))
		b.Li(isa.R27, int64(1<<n)-1) // full mask
		b.Li(isa.R25, 0)             // rep
		b.Li(isa.R24, int64(reps))
		b.Label("rep")
		b.Li(isa.R1, 0) // cols
		b.Li(isa.R2, 0) // diag1
		b.Li(isa.R3, 0) // diag2
		b.Call("solve")
		b.AddI(isa.R25, isa.R25, 1)
		b.Blt(isa.R25, isa.R24, "rep")
		storeResult(b, 0, isa.R20)
		b.Halt()

		// solve(cols=r1, d1=r2, d2=r3): standard bitmask queens.
		// avail = ~(cols|d1|d2) & full; iterate lowest set bits.
		b.Label("solve")
		b.Beq(isa.R1, isa.R27, "solved") // all columns used
		b.Or(isa.R4, isa.R1, isa.R2)
		b.Or(isa.R4, isa.R4, isa.R3)
		b.XorI(isa.R4, isa.R4, -1)
		b.And(isa.R4, isa.R4, isa.R27) // avail
		b.Label("try")
		b.Beqz(isa.R4, "return")
		// bit = avail & -avail
		b.Sub(isa.R5, isa.R0, isa.R4)
		b.And(isa.R5, isa.R4, isa.R5)
		b.Xor(isa.R4, isa.R4, isa.R5) // clear bit
		// push caller state (r1..r5, lr)
		b.AddI(isa.SP, isa.SP, -48)
		b.St(isa.SP, 0, isa.R1)
		b.St(isa.SP, 8, isa.R2)
		b.St(isa.SP, 16, isa.R3)
		b.St(isa.SP, 24, isa.R4)
		b.St(isa.SP, 32, isa.R5)
		b.St(isa.SP, 40, isa.LR)
		// recurse with (cols|bit, (d1|bit)<<1 & full, (d2|bit)>>1)
		b.Or(isa.R1, isa.R1, isa.R5)
		b.Or(isa.R2, isa.R2, isa.R5)
		b.ShlI(isa.R2, isa.R2, 1)
		b.And(isa.R2, isa.R2, isa.R27)
		b.Or(isa.R3, isa.R3, isa.R5)
		b.ShrI(isa.R3, isa.R3, 1)
		b.Call("solve")
		// pop
		b.Ld(isa.R1, isa.SP, 0)
		b.Ld(isa.R2, isa.SP, 8)
		b.Ld(isa.R3, isa.SP, 16)
		b.Ld(isa.R4, isa.SP, 24)
		b.Ld(isa.R5, isa.SP, 32)
		b.Ld(isa.LR, isa.SP, 40)
		b.AddI(isa.SP, isa.SP, 48)
		b.Jmp("try")
		b.Label("solved")
		b.AddI(isa.R20, isa.R20, 1)
		b.Label("return")
		b.Ret()
		return b.MustBuild()
	}
	expected := func(scale int) []uint64 {
		n := 8
		if scale >= 1 {
			n = 10
		}
		reps := 1
		if scale > 1 {
			reps = scale
		}
		full := uint64(1<<n) - 1
		var solve func(cols, d1, d2 uint64) uint64
		solve = func(cols, d1, d2 uint64) uint64 {
			if cols == full {
				return 1
			}
			var cnt uint64
			avail := ^(cols | d1 | d2) & full
			for avail != 0 {
				bit := avail & (-avail)
				avail ^= bit
				cnt += solve(cols|bit, ((d1|bit)<<1)&full, (d2|bit)>>1)
			}
			return cnt
		}
		return []uint64{solve(0, 0, 0) * uint64(reps)}
	}
	return Workload{Name: "exchange2", Flow: Complex, Build: build, Expected: expected}
}

// --- xz ---

// XZ is an LZ77 match-finder kernel: hash-chain candidate probing with
// byte-granular match-length loops — simple control flow (the paper
// classifies xz with the GAP kernels) but thoroughly data-dependent.
func XZ() Workload {
	const dataLen = 1 << 16
	const hashBits = 12
	genData := func() []byte {
		// 16 zero bytes of padding: match-length probes may read past the
		// scan region; both the µISA and the native model see those zeros.
		r := newRng(0x7A12)
		data := make([]byte, dataLen+16)
		// Mix of random bytes and repeated phrases (so matches exist).
		phrase := []byte("the_quick_brown_fox_jumps_over_the_lazy_dog_")
		i := 0
		for i < dataLen {
			if r.intn(4) == 0 && i+len(phrase) < dataLen {
				copy(data[i:], phrase)
				i += len(phrase)
			} else {
				data[i] = byte('a' + r.intn(16))
				i++
			}
		}
		return data
	}
	build := func(scale int) *isa.Program {
		passes := specIters(scale, 20)
		data := genData()
		b := asm.NewBuilder()
		l := newLayout()
		dataA := l.alloc(dataLen + 16)
		headA := l.words(1 << hashBits)
		b.Data(dataA, data)

		b.Label("main")
		b.LiU(isa.R1, dataA)
		b.LiU(isa.R2, headA)
		b.Li(isa.R20, 0) // matched bytes
		b.Li(isa.R21, 0) // literals
		b.Li(isa.R25, 0) // pass
		b.Li(isa.R24, int64(passes))
		b.Label("pass")
		// clear hash heads
		b.Li(isa.R8, 0)
		b.Li(isa.R9, 1<<hashBits)
		b.Label("clr")
		idx(b, isa.R10, isa.R2, isa.R8)
		b.Li(isa.R11, -1)
		b.St(isa.R10, 0, isa.R11)
		b.AddI(isa.R8, isa.R8, 1)
		b.Blt(isa.R8, isa.R9, "clr")
		b.Li(isa.R3, 0) // pos
		b.Li(isa.R4, dataLen-8)
		b.Label("scan")
		// h = (d0 | d1<<8 | d2<<16) * 2654435761 >> (32-hashBits) & mask
		b.Add(isa.R10, isa.R1, isa.R3)
		b.Ld4(isa.R5, isa.R10, 0)
		b.LiU(isa.R6, 0xFFFFFF)
		b.And(isa.R5, isa.R5, isa.R6)
		b.LiU(isa.R6, 2654435761)
		b.Mul(isa.R5, isa.R5, isa.R6)
		b.ShrI(isa.R5, isa.R5, 32-hashBits)
		b.LiU(isa.R6, (1<<hashBits)-1)
		b.And(isa.R5, isa.R5, isa.R6) // h
		idx(b, isa.R7, isa.R2, isa.R5)
		b.Ld(isa.R8, isa.R7, 0) // candidate pos
		b.St(isa.R7, 0, isa.R3) // head[h] = pos
		b.Li(isa.R11, -1)
		b.Beq(isa.R8, isa.R11, "literal") // H2P: chain empty?
		// match length loop (cap 16)
		b.Li(isa.R9, 0)
		b.Label("mlen")
		b.Add(isa.R10, isa.R1, isa.R3)
		b.Add(isa.R10, isa.R10, isa.R9)
		b.Ld1(isa.R12, isa.R10, 0)
		b.Add(isa.R10, isa.R1, isa.R8)
		b.Add(isa.R10, isa.R10, isa.R9)
		b.Ld1(isa.R13, isa.R10, 0)
		b.Bne(isa.R12, isa.R13, "mdone") // H2P: byte compare
		b.AddI(isa.R9, isa.R9, 1)
		b.SltI(isa.R10, isa.R9, 16)
		b.Bnez(isa.R10, "mlen")
		b.Label("mdone")
		b.SltI(isa.R10, isa.R9, 4)
		b.Bnez(isa.R10, "literal") // H2P: long enough?
		b.Add(isa.R20, isa.R20, isa.R9)
		b.Add(isa.R3, isa.R3, isa.R9) // skip matched bytes
		b.Jmp("cont")
		b.Label("literal")
		b.AddI(isa.R21, isa.R21, 1)
		b.AddI(isa.R3, isa.R3, 1)
		b.Label("cont")
		b.Blt(isa.R3, isa.R4, "scan")
		b.AddI(isa.R25, isa.R25, 1)
		b.Blt(isa.R25, isa.R24, "pass")
		storeResult(b, 0, isa.R20)
		storeResult(b, 1, isa.R21)
		b.Halt()
		return b.MustBuild()
	}
	expected := func(scale int) []uint64 {
		passes := specIters(scale, 20)
		data := genData()
		var matched, literals uint64
		for p := 0; p < passes; p++ {
			head := make([]int64, 1<<hashBits)
			for i := range head {
				head[i] = -1
			}
			pos := int64(0)
			for pos < dataLen-8 {
				trigram := uint64(data[pos]) | uint64(data[pos+1])<<8 | uint64(data[pos+2])<<16
				h := (trigram * 2654435761) >> (32 - hashBits) & ((1 << hashBits) - 1)
				cand := head[h]
				head[h] = pos
				if cand == -1 {
					literals++
					pos++
					continue
				}
				mlen := int64(0)
				for mlen < 16 && data[pos+mlen] == data[cand+mlen] {
					mlen++
				}
				if mlen < 4 {
					literals++
					pos++
					continue
				}
				matched += uint64(mlen)
				pos += mlen
			}
		}
		return []uint64{matched, literals}
	}
	return Workload{Name: "xz", Flow: Simple, Build: build, Expected: expected}
}

// --- nab ---

// NAB is a molecular-dynamics-flavoured kernel: a cache-resident decision
// array drives a data-dependent cutoff branch (a short, fast dependence
// chain), and each accepted pair performs scattered floating-point loads
// over a multi-megabyte coordinate set. Resolving the branch early lets the
// correct-path long-latency loads issue sooner — the paper's "many long
// latency loads in the shadow of a few H2P branches".
func NAB() Workload {
	// input is one scale's coordinates and candidate pairs, drawn once for
	// the program and the native model alike.
	type input struct {
		xs, ys, zs      []float64
		key, iIdx, jIdx []uint64
	}
	gen := func(scale int) *input {
		n, pairs := 1<<17, 1<<16 // 3 MB of coordinates: well beyond the LLC
		if scale <= 0 {
			n, pairs = 1<<12, 1<<12
		}
		r := newRng(0x4AB)
		in := &input{xs: make([]float64, n), ys: make([]float64, n), zs: make([]float64, n),
			key: make([]uint64, pairs), iIdx: make([]uint64, pairs), jIdx: make([]uint64, pairs)}
		for i := 0; i < n; i++ {
			in.xs[i] = float64(r.intn(1000)) / 10
			in.ys[i] = float64(r.intn(1000)) / 10
			in.zs[i] = float64(r.intn(1000)) / 10
		}
		for k := 0; k < pairs; k++ {
			in.key[k] = r.next() & 255
			in.iIdx[k] = uint64(r.intn(n))
			in.jIdx[k] = uint64(r.intn(n))
		}
		return in
	}
	build := func(scale int) *isa.Program {
		in := gen(scale)
		n, pairs := len(in.xs), len(in.key)
		b := asm.NewBuilder()
		l := newLayout()
		xA := l.words(n)
		yA := l.words(n)
		zA := l.words(n)
		kA := l.words(pairs)
		iA := l.words(pairs)
		jA := l.words(pairs)
		b.DataF64(xA, in.xs)
		b.DataF64(yA, in.ys)
		b.DataF64(zA, in.zs)
		b.DataU64(kA, in.key)
		b.DataU64(iA, in.iIdx)
		b.DataU64(jA, in.jIdx)

		b.Label("main")
		b.LiU(isa.R1, xA)
		b.LiU(isa.R2, yA)
		b.LiU(isa.R3, zA)
		b.LiU(isa.R4, kA)
		b.LiU(isa.R5, iA)
		b.LiU(isa.R15, jA)
		b.Li(isa.R9, int64(pairs))
		b.Li(isa.R20, 0) // energy (f64 bits, 0.0)
		b.Li(isa.R21, 0) // accepted pairs
		b.Li(isa.R8, 0)  // k
		b.Label("ploop")
		// Decision chain: cache-resident key load + threshold compare.
		idx(b, isa.R10, isa.R4, isa.R8)
		b.Ld(isa.R11, isa.R10, 0)
		b.SltI(isa.R12, isa.R11, 104) // ~40% accept rate, data-dependent
		b.Beqz(isa.R12, "pnext")      // H2P guarding the expensive body
		// Guarded body: scattered coordinate loads (LLC/DRAM) + FP.
		idx(b, isa.R10, isa.R5, isa.R8)
		b.Ld(isa.R6, isa.R10, 0) // i
		idx(b, isa.R10, isa.R15, isa.R8)
		b.Ld(isa.R7, isa.R10, 0) // j
		idx(b, isa.R10, isa.R1, isa.R6)
		b.Ld(isa.R16, isa.R10, 0) // xi
		idx(b, isa.R10, isa.R1, isa.R7)
		b.Ld(isa.R17, isa.R10, 0) // xj
		b.FSub(isa.R16, isa.R17, isa.R16)
		b.FMul(isa.R16, isa.R16, isa.R16)
		idx(b, isa.R10, isa.R2, isa.R6)
		b.Ld(isa.R13, isa.R10, 0)
		idx(b, isa.R10, isa.R2, isa.R7)
		b.Ld(isa.R17, isa.R10, 0)
		b.FSub(isa.R17, isa.R17, isa.R13)
		b.FMul(isa.R17, isa.R17, isa.R17)
		b.FAdd(isa.R16, isa.R16, isa.R17)
		idx(b, isa.R10, isa.R3, isa.R6)
		b.Ld(isa.R13, isa.R10, 0)
		idx(b, isa.R10, isa.R3, isa.R7)
		b.Ld(isa.R17, isa.R10, 0)
		b.FSub(isa.R17, isa.R17, isa.R13)
		b.FMul(isa.R17, isa.R17, isa.R17)
		b.FAdd(isa.R16, isa.R16, isa.R17) // r2
		b.AddI(isa.R21, isa.R21, 1)
		b.Li(isa.R18, int64(math.Float64bits(1.0)))
		b.FAdd(isa.R16, isa.R16, isa.R18)
		b.FDiv(isa.R16, isa.R18, isa.R16)
		b.FAdd(isa.R20, isa.R20, isa.R16)
		b.Label("pnext")
		b.AddI(isa.R8, isa.R8, 1)
		b.Blt(isa.R8, isa.R9, "ploop")
		b.Li(isa.R11, int64(math.Float64bits(1e6)))
		b.FMul(isa.R20, isa.R20, isa.R11)
		b.FInt(isa.R20, isa.R20)
		storeResult(b, 0, isa.R20)
		storeResult(b, 1, isa.R21)
		b.Halt()
		return b.MustBuild()
	}
	expected := func(scale int) []uint64 {
		in := gen(scale)
		var energy float64
		var cnt uint64
		for k, key := range in.key {
			if int64(key) >= 104 {
				continue
			}
			i, j := in.iIdx[k], in.jIdx[k]
			dx := in.xs[j] - in.xs[i]
			dy := in.ys[j] - in.ys[i]
			dz := in.zs[j] - in.zs[i]
			r2 := dx*dx + dy*dy + dz*dz
			cnt++
			energy += 1.0 / (1.0 + r2)
		}
		return []uint64{uint64(int64(energy * 1e6)), cnt}
	}
	return Workload{Name: "nab", Flow: Complex, Build: build, Expected: expected}
}
