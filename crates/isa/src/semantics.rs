//! Functional execution semantics and activity accounting.
//!
//! Every instruction executes against an [`ArchState`] and yields an
//! [`Effect`] describing control flow plus the *bit-toggle activity* it
//! caused. The paper observes (§III.B.2) that register values have a
//! considerable effect on power — checkerboard patterns like `0xAAAA…`
//! maximize bit switching — so the simulator's power model is driven by the
//! Hamming-distance accounting collected here rather than by opcode class
//! alone.

use crate::instruction::Instruction;
use crate::opcode::Opcode;
use crate::reg::{Reg, VReg, NUM_INT_REGS, NUM_VEC_REGS};

/// Control-flow outcome of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flow {
    /// Fall through to the next instruction.
    Sequential,
    /// Skip the following `n` instructions (a taken forward branch). Skips
    /// past the end of a block simply end the block.
    Skip(u8),
}

/// A memory access performed by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Byte address after masking and alignment.
    pub addr: usize,
    /// Access width in bytes.
    pub width: usize,
    /// `true` for stores, `false` for loads.
    pub is_store: bool,
}

/// The observable outcome of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Effect {
    /// Where control flow goes next.
    pub flow: Flow,
    /// Total Hamming distance between old and new values of every
    /// destination (registers and stored memory bytes). This is the dynamic
    /// switching-activity proxy consumed by the power model.
    pub dest_toggles: u32,
    /// Total population count of all source values read. A secondary
    /// activity proxy for operand-bus and ALU input capacitance.
    pub src_bits: u32,
    /// The memory access performed, if any.
    pub mem: Option<MemAccess>,
    /// Whether a branch was taken (always `false` for non-branches).
    pub branch_taken: bool,
}

impl Default for Effect {
    fn default() -> Self {
        Effect {
            flow: Flow::Sequential,
            dest_toggles: 0,
            src_bits: 0,
            mem: None,
            branch_taken: false,
        }
    }
}

/// Architectural state: integer registers, vector registers, and a private
/// data-memory buffer.
///
/// The memory buffer plays the role of the virus's scratch array. Like the
/// viruses in the paper (which keep extremely high L1 hit rates), addresses
/// are wrapped into the buffer with a power-of-two mask, so any generated
/// base/offset combination is a safe, in-bounds access.
#[derive(Debug, Clone)]
pub struct ArchState {
    xregs: [u64; NUM_INT_REGS as usize],
    vregs: [[u64; 2]; NUM_VEC_REGS as usize],
    mem: Vec<u8>,
    /// Incremental content hash of `mem` (see [`ArchState::mem_hash`]):
    /// the XOR over all 8-byte words of
    /// `mem_word_mix(word_key(index), word)`, kept current by
    /// [`store`](Self::store) so observers can compare memory images in
    /// O(1) instead of O(len). `Cell`: recomputed lazily after bulk writes
    /// that bypass `store`.
    mem_hash: std::cell::Cell<u64>,
    /// Set by bulk-write paths ([`fill_mem`](Self::fill_mem),
    /// [`mem_mut`](Self::mem_mut)); forces a rescan on the next
    /// [`mem_hash`](Self::mem_hash) call.
    mem_hash_dirty: std::cell::Cell<bool>,
}

impl PartialEq for ArchState {
    fn eq(&self, other: &ArchState) -> bool {
        self.xregs == other.xregs && self.vregs == other.vregs && self.mem == other.mem
    }
}

impl Eq for ArchState {}

/// SplitMix64 finalizer: a fast, well-mixed 64-bit permutation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The per-position key of the memory word at word index `index`.
fn word_key(index: usize) -> u64 {
    splitmix64(index as u64)
}

/// Zobrist-style memory mix of one little-endian word under its
/// position's [`word_key`]. Zero words map to zero so a zeroed buffer
/// hashes to zero without scanning it.
fn mem_word_mix(key: u64, word: u64) -> u64 {
    if word == 0 {
        0
    } else {
        splitmix64(word ^ key)
    }
}

/// Full rescan: the XOR of [`mem_word_mix`] over every word of `mem`.
fn mem_hash_of(mem: &[u8]) -> u64 {
    mem.chunks_exact(8).enumerate().fold(0, |h, (index, word)| {
        h ^ mem_word_mix(
            word_key(index),
            u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        )
    })
}

impl ArchState {
    /// Creates a state with a zeroed memory buffer of `mem_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `mem_size` is not a power of two or is smaller than 64
    /// bytes (the widest access is 16 bytes and needs alignment room).
    pub fn new(mem_size: usize) -> ArchState {
        assert!(
            mem_size.is_power_of_two() && mem_size >= 64,
            "memory size must be a power of two >= 64, got {mem_size}"
        );
        ArchState {
            xregs: [0; NUM_INT_REGS as usize],
            vregs: [[0; 2]; NUM_VEC_REGS as usize],
            mem: vec![0; mem_size],
            // zero bytes contribute 0 to the mix, so a fresh buffer is clean
            mem_hash: std::cell::Cell::new(0),
            mem_hash_dirty: std::cell::Cell::new(false),
        }
    }

    /// The memory buffer size in bytes.
    pub fn mem_size(&self) -> usize {
        self.mem.len()
    }

    /// Reads an integer register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.xregs[r.index() as usize]
    }

    /// Writes an integer register.
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.xregs[r.index() as usize] = value;
    }

    /// Reads a vector register as two 64-bit lanes.
    pub fn vreg(&self, v: VReg) -> [u64; 2] {
        self.vregs[v.index() as usize]
    }

    /// Writes a vector register.
    pub fn set_vreg(&mut self, v: VReg, lanes: [u64; 2]) {
        self.vregs[v.index() as usize] = lanes;
    }

    /// Fills the memory buffer with a repeating byte pattern.
    pub fn fill_mem(&mut self, byte: u8) {
        self.mem.fill(byte);
        self.mem_hash_dirty.set(true);
    }

    /// Direct read access to the memory buffer (e.g. for workload setup).
    pub fn mem(&self) -> &[u8] {
        &self.mem
    }

    /// All integer registers in index order.
    pub fn xregs(&self) -> &[u64] {
        &self.xregs
    }

    /// All vector registers in index order, as 64-bit lane pairs.
    pub fn vregs(&self) -> &[[u64; 2]] {
        &self.vregs
    }

    /// Direct mutable access to the memory buffer.
    pub fn mem_mut(&mut self) -> &mut [u8] {
        self.mem_hash_dirty.set(true);
        &mut self.mem
    }

    /// A 64-bit content hash of the memory buffer, equal for equal images.
    ///
    /// Maintained incrementally by [`store`](Self::store) — one XOR pair per
    /// changed 8-byte word — so during simulation this is O(1) per call
    /// rather than O(len). Bulk writes through [`fill_mem`](Self::fill_mem) or
    /// [`mem_mut`](Self::mem_mut) mark the hash stale and the next call
    /// rescans the buffer once.
    ///
    /// Two different images collide with probability ~2⁻⁶⁴; callers that
    /// need certainty must compare [`mem`](Self::mem) directly.
    pub fn mem_hash(&self) -> u64 {
        if self.mem_hash_dirty.get() {
            self.mem_hash.set(mem_hash_of(&self.mem));
            self.mem_hash_dirty.set(false);
        }
        self.mem_hash.get()
    }

    fn mem_addr(&self, base: u64, offset: i64, width: usize) -> usize {
        let raw = base.wrapping_add(offset as u64) as usize;
        (raw & (self.mem.len() - 1)) & !(width - 1)
    }

    /// The little-endian word at the 8-aligned byte address `addr`. Every
    /// access is one or two such words: [`mem_addr`](Self::mem_addr)
    /// aligns to the access width, which is 8 or 16.
    fn load(&self, addr: usize) -> u64 {
        u64::from_le_bytes(self.mem[addr..addr + 8].try_into().expect("8-byte word"))
    }

    /// Stores the word at the 8-aligned byte address `addr`, returning the
    /// bits it flipped and keeping the content hash current.
    fn store(&mut self, addr: usize, value: u64) -> u32 {
        let word: &mut [u8; 8] = (&mut self.mem[addr..addr + 8])
            .try_into()
            .expect("8-byte word");
        let old = u64::from_le_bytes(*word);
        if old != value {
            *word = value.to_le_bytes();
            let key = word_key(addr / 8);
            self.mem_hash
                .set(self.mem_hash.get() ^ mem_word_mix(key, old) ^ mem_word_mix(key, value));
        }
        (old ^ value).count_ones()
    }
}

/// The canonical checkerboard initialization pattern used by the paper's
/// templates to maximize bit switching.
pub const CHECKERBOARD: u64 = 0xAAAA_AAAA_AAAA_AAAA;

impl Instruction {
    /// The integer register at operand position `i`.
    fn x(&self, state: &ArchState, i: usize) -> u64 {
        state.xregs[self.regs[i] as usize]
    }

    /// The vector register at operand position `i`.
    fn v(&self, state: &ArchState, i: usize) -> [u64; 2] {
        state.vregs[self.regs[i] as usize]
    }

    /// Integer three-operand helper: dst = f(a, b).
    #[inline(always)]
    fn int3(&self, state: &mut ArchState, f: impl Fn(u64, u64) -> u64) -> Effect {
        let a = self.x(state, 1);
        let b = self.x(state, 2);
        let result = f(a, b);
        let dst = &mut state.xregs[self.regs[0] as usize];
        let effect = Effect {
            src_bits: a.count_ones() + b.count_ones(),
            dest_toggles: hamming(*dst, result),
            ..Effect::default()
        };
        *dst = result;
        effect
    }

    /// Integer reg+imm helper: dst = f(a, imm).
    #[inline(always)]
    fn int_imm(&self, state: &mut ArchState, f: impl Fn(u64, i64) -> u64) -> Effect {
        let a = self.x(state, 1);
        let result = f(a, self.imms[0]);
        let dst = &mut state.xregs[self.regs[0] as usize];
        let effect = Effect {
            src_bits: a.count_ones(),
            dest_toggles: hamming(*dst, result),
            ..Effect::default()
        };
        *dst = result;
        effect
    }

    /// Scalar FP helper on lane 0: dst = f(a, b) with lane 1 preserved.
    #[inline(always)]
    fn fp2(&self, state: &mut ArchState, f: impl Fn(f64, f64) -> f64) -> Effect {
        let a = self.v(state, 1);
        let b = self.v(state, 2);
        let result = sanitize(f(f64::from_bits(a[0]), f64::from_bits(b[0])));
        let dst = &mut state.vregs[self.regs[0] as usize];
        let new = [result.to_bits(), dst[1]];
        let effect = Effect {
            src_bits: a[0].count_ones() + b[0].count_ones(),
            dest_toggles: hamming(dst[0], new[0]),
            ..Effect::default()
        };
        *dst = new;
        effect
    }

    /// Writes a vector result and accounts its toggles and the two-lane
    /// source population of `a` and `b`.
    #[inline(always)]
    fn vec_result(&self, state: &mut ArchState, a: [u64; 2], b: [u64; 2], new: [u64; 2]) -> Effect {
        let dst = &mut state.vregs[self.regs[0] as usize];
        let effect = Effect {
            src_bits: a[0].count_ones() + a[1].count_ones() + b[0].count_ones() + b[1].count_ones(),
            dest_toggles: hamming(dst[0], new[0]) + hamming(dst[1], new[1]),
            ..Effect::default()
        };
        *dst = new;
        effect
    }

    /// SIMD lane-wise integer helper.
    #[inline(always)]
    fn simd3(&self, state: &mut ArchState, f: impl Fn(u64, u64) -> u64) -> Effect {
        let a = self.v(state, 1);
        let b = self.v(state, 2);
        self.vec_result(state, a, b, [f(a[0], b[0]), f(a[1], b[1])])
    }

    /// SIMD lane-wise FP helper.
    #[inline(always)]
    fn simd_fp(&self, state: &mut ArchState, f: impl Fn(f64, f64) -> f64) -> Effect {
        let a = self.v(state, 1);
        let b = self.v(state, 2);
        let new = [
            sanitize(f(f64::from_bits(a[0]), f64::from_bits(b[0]))).to_bits(),
            sanitize(f(f64::from_bits(a[1]), f64::from_bits(b[1]))).to_bits(),
        ];
        self.vec_result(state, a, b, new)
    }

    /// A memory operand: the base register at operand position `base` and
    /// its address plus the offset immediate, wrapped and aligned to
    /// `width`. Returns `(base value, address)`.
    fn addr(&self, state: &ArchState, base: usize, width: usize) -> (u64, usize) {
        let base = self.x(state, base);
        (base, state.mem_addr(base, self.imms[0], width))
    }

    /// Executes this instruction against `state` and returns what it did.
    /// Infallible: operand shapes were checked when the instruction was
    /// built, and the operands are already inline, so the simulator calls
    /// this directly on every dynamic instruction.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use gest_isa::{asm, ArchState, Reg};
    /// let add = asm::parse_line("ADD x1, x2, x3")?.unwrap();
    /// let mut state = ArchState::new(64);
    /// state.set_reg(Reg::new(2)?, 40);
    /// state.set_reg(Reg::new(3)?, 2);
    /// add.apply(&mut state);
    /// assert_eq!(state.reg(Reg::new(1)?), 42);
    /// # Ok(())
    /// # }
    /// ```
    #[inline]
    pub fn apply(&self, state: &mut ArchState) -> Effect {
        match self.opcode {
            Opcode::Add => self.int3(state, u64::wrapping_add),
            Opcode::Sub => self.int3(state, u64::wrapping_sub),
            Opcode::And => self.int3(state, |a, b| a & b),
            Opcode::Orr => self.int3(state, |a, b| a | b),
            Opcode::Eor => self.int3(state, |a, b| a ^ b),
            Opcode::Addi => self.int_imm(state, |a, i| a.wrapping_add(i as u64)),
            Opcode::Subi => self.int_imm(state, |a, i| a.wrapping_sub(i as u64)),
            Opcode::Lsl => self.int_imm(state, |a, i| a << (i as u32 & 63)),
            Opcode::Lsr => self.int_imm(state, |a, i| a >> (i as u32 & 63)),
            Opcode::Asr => self.int_imm(state, |a, i| ((a as i64) >> (i as u32 & 63)) as u64),
            Opcode::Mov => {
                let a = self.x(state, 1);
                let dst = &mut state.xregs[self.regs[0] as usize];
                let effect = Effect {
                    src_bits: a.count_ones(),
                    dest_toggles: hamming(*dst, a),
                    ..Effect::default()
                };
                *dst = a;
                effect
            }
            Opcode::Movi => {
                let value = self.imms[0] as u64;
                let dst = &mut state.xregs[self.regs[0] as usize];
                let effect = Effect {
                    dest_toggles: hamming(*dst, value),
                    ..Effect::default()
                };
                *dst = value;
                effect
            }
            Opcode::Mul => self.int3(state, u64::wrapping_mul),
            Opcode::Smulh => self.int3(state, |a, b| {
                (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64
            }),
            Opcode::Mla => {
                let a = self.x(state, 1);
                let b = self.x(state, 2);
                let c = self.x(state, 3);
                let result = a.wrapping_mul(b).wrapping_add(c);
                let dst = &mut state.xregs[self.regs[0] as usize];
                let effect = Effect {
                    src_bits: a.count_ones() + b.count_ones() + c.count_ones(),
                    dest_toggles: hamming(*dst, result),
                    ..Effect::default()
                };
                *dst = result;
                effect
            }
            Opcode::Sdiv => self.int3(state, |a, b| {
                let (a, b) = (a as i64, b as i64);
                if b == 0 {
                    0
                } else if a == i64::MIN && b == -1 {
                    a as u64 // ARM: overflow case returns the dividend pattern.
                } else {
                    (a / b) as u64
                }
            }),
            Opcode::Udiv => self.int3(state, |a, b| a.checked_div(b).unwrap_or(0)),
            Opcode::Fadd => self.fp2(state, |a, b| a + b),
            Opcode::Fsub => self.fp2(state, |a, b| a - b),
            Opcode::Fmul => self.fp2(state, |a, b| a * b),
            Opcode::Fdiv => self.fp2(state, |a, b| a / b),
            Opcode::Fmla => {
                // dst = dst + a * b (fused multiply-add accumulating in dst).
                let a = self.v(state, 1);
                let b = self.v(state, 2);
                let dst = &mut state.vregs[self.regs[0] as usize];
                let old = *dst;
                let result = sanitize(
                    f64::from_bits(a[0]).mul_add(f64::from_bits(b[0]), f64::from_bits(old[0])),
                );
                let new = [result.to_bits(), old[1]];
                *dst = new;
                Effect {
                    src_bits: a[0].count_ones() + b[0].count_ones() + old[0].count_ones(),
                    dest_toggles: hamming(old[0], new[0]),
                    ..Effect::default()
                }
            }
            Opcode::Fsqrt => {
                let a = self.v(state, 1);
                let result = sanitize(f64::from_bits(a[0]).sqrt());
                let dst = &mut state.vregs[self.regs[0] as usize];
                let new = [result.to_bits(), dst[1]];
                let effect = Effect {
                    src_bits: a[0].count_ones(),
                    dest_toggles: hamming(dst[0], new[0]),
                    ..Effect::default()
                };
                *dst = new;
                effect
            }
            Opcode::Vadd => self.simd3(state, u64::wrapping_add),
            Opcode::Vsub => self.simd3(state, u64::wrapping_sub),
            Opcode::Vmul => self.simd3(state, u64::wrapping_mul),
            Opcode::Vmla => {
                let a = self.v(state, 1);
                let b = self.v(state, 2);
                let old = self.v(state, 0);
                let new = [
                    old[0].wrapping_add(a[0].wrapping_mul(b[0])),
                    old[1].wrapping_add(a[1].wrapping_mul(b[1])),
                ];
                self.vec_result(state, a, b, new)
            }
            Opcode::Vand => self.simd3(state, |a, b| a & b),
            Opcode::Veor => self.simd3(state, |a, b| a ^ b),
            Opcode::Vfadd => self.simd_fp(state, |a, b| a + b),
            Opcode::Vfmul => self.simd_fp(state, |a, b| a * b),
            Opcode::Vfmla => {
                let a = self.v(state, 1);
                let b = self.v(state, 2);
                let old = self.v(state, 0);
                let new = [
                    sanitize(
                        f64::from_bits(a[0]).mul_add(f64::from_bits(b[0]), f64::from_bits(old[0])),
                    )
                    .to_bits(),
                    sanitize(
                        f64::from_bits(a[1]).mul_add(f64::from_bits(b[1]), f64::from_bits(old[1])),
                    )
                    .to_bits(),
                ];
                self.vec_result(state, a, b, new)
            }
            Opcode::Vmovi => {
                let new = [self.imms[0] as u64, self.imms[1] as u64];
                let dst = &mut state.vregs[self.regs[0] as usize];
                let effect = Effect {
                    dest_toggles: hamming(dst[0], new[0]) + hamming(dst[1], new[1]),
                    ..Effect::default()
                };
                *dst = new;
                effect
            }
            Opcode::Ldr => {
                let (base, addr) = self.addr(state, 1, 8);
                let value = state.load(addr);
                let dst = &mut state.xregs[self.regs[0] as usize];
                let effect = Effect {
                    src_bits: base.count_ones(),
                    dest_toggles: hamming(*dst, value),
                    mem: Some(MemAccess {
                        addr,
                        width: 8,
                        is_store: false,
                    }),
                    ..Effect::default()
                };
                *dst = value;
                effect
            }
            Opcode::Str => {
                let value = self.x(state, 0);
                let (base, addr) = self.addr(state, 1, 8);
                Effect {
                    src_bits: value.count_ones() + base.count_ones(),
                    dest_toggles: state.store(addr, value),
                    mem: Some(MemAccess {
                        addr,
                        width: 8,
                        is_store: true,
                    }),
                    ..Effect::default()
                }
            }
            Opcode::Ldp => {
                let (base, addr) = self.addr(state, 2, 16);
                let v1 = state.load(addr);
                let v2 = state.load(addr + 8);
                let (d1, d2) = (self.regs[0] as usize, self.regs[1] as usize);
                let effect = Effect {
                    src_bits: base.count_ones(),
                    dest_toggles: hamming(state.xregs[d1], v1) + hamming(state.xregs[d2], v2),
                    mem: Some(MemAccess {
                        addr,
                        width: 16,
                        is_store: false,
                    }),
                    ..Effect::default()
                };
                state.xregs[d1] = v1;
                state.xregs[d2] = v2;
                effect
            }
            Opcode::Stp => {
                let v1 = self.x(state, 0);
                let v2 = self.x(state, 1);
                let (base, addr) = self.addr(state, 2, 16);
                Effect {
                    src_bits: v1.count_ones() + v2.count_ones() + base.count_ones(),
                    dest_toggles: state.store(addr, v1) + state.store(addr + 8, v2),
                    mem: Some(MemAccess {
                        addr,
                        width: 16,
                        is_store: true,
                    }),
                    ..Effect::default()
                }
            }
            Opcode::Vldr => {
                let (base, addr) = self.addr(state, 1, 16);
                let new = [state.load(addr), state.load(addr + 8)];
                let dst = &mut state.vregs[self.regs[0] as usize];
                let effect = Effect {
                    src_bits: base.count_ones(),
                    dest_toggles: hamming(dst[0], new[0]) + hamming(dst[1], new[1]),
                    mem: Some(MemAccess {
                        addr,
                        width: 16,
                        is_store: false,
                    }),
                    ..Effect::default()
                };
                *dst = new;
                effect
            }
            Opcode::Vstr => {
                let value = self.v(state, 0);
                let (base, addr) = self.addr(state, 1, 16);
                Effect {
                    src_bits: value[0].count_ones() + value[1].count_ones() + base.count_ones(),
                    dest_toggles: state.store(addr, value[0]) + state.store(addr + 8, value[1]),
                    mem: Some(MemAccess {
                        addr,
                        width: 16,
                        is_store: true,
                    }),
                    ..Effect::default()
                }
            }
            Opcode::B => Effect {
                flow: Flow::Skip(self.target),
                branch_taken: true,
                ..Effect::default()
            },
            Opcode::Cbz | Opcode::Cbnz => {
                let value = self.x(state, 0);
                let taken = (value == 0) == (self.opcode == Opcode::Cbz);
                Effect {
                    src_bits: value.count_ones(),
                    flow: if taken {
                        Flow::Skip(self.target)
                    } else {
                        Flow::Sequential
                    },
                    branch_taken: taken,
                    ..Effect::default()
                }
            }
            Opcode::Nop => Effect::default(),
        }
    }
}

fn hamming(a: u64, b: u64) -> u32 {
    (a ^ b).count_ones()
}

/// Clamps non-finite floating-point results back into a benign range.
///
/// Stress loops repeatedly multiply/accumulate; without this, values explode
/// to infinity within a few iterations, after which bit activity collapses
/// (inf op inf = inf: zero toggles). Real viruses avoid this by choosing
/// operand values carefully; we make the substrate forgiving instead so the
/// GA explores freely. NaN/inf fold to a fixed mid-range constant.
fn sanitize(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        1.234_567_890_123e10
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm;

    fn run(state: &mut ArchState, line: &str) -> Effect {
        asm::parse_line(line).unwrap().unwrap().apply(state)
    }

    fn x(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    fn v(i: u8) -> VReg {
        VReg::new(i).unwrap()
    }

    #[test]
    fn integer_arithmetic() {
        let mut s = ArchState::new(64);
        s.set_reg(x(1), 10);
        s.set_reg(x(2), 3);
        run(&mut s, "ADD x0, x1, x2");
        assert_eq!(s.reg(x(0)), 13);
        run(&mut s, "SUB x0, x1, x2");
        assert_eq!(s.reg(x(0)), 7);
        run(&mut s, "MUL x0, x1, x2");
        assert_eq!(s.reg(x(0)), 30);
        run(&mut s, "MLA x0, x1, x2, x1");
        assert_eq!(s.reg(x(0)), 40);
    }

    #[test]
    fn logic_and_shifts() {
        let mut s = ArchState::new(64);
        s.set_reg(x(1), 0b1100);
        s.set_reg(x(2), 0b1010);
        run(&mut s, "AND x0, x1, x2");
        assert_eq!(s.reg(x(0)), 0b1000);
        run(&mut s, "ORR x0, x1, x2");
        assert_eq!(s.reg(x(0)), 0b1110);
        run(&mut s, "EOR x0, x1, x2");
        assert_eq!(s.reg(x(0)), 0b0110);
        run(&mut s, "LSL x0, x1, #2");
        assert_eq!(s.reg(x(0)), 0b110000);
        run(&mut s, "LSR x0, x1, #2");
        assert_eq!(s.reg(x(0)), 0b11);
        s.set_reg(x(3), (-8i64) as u64);
        run(&mut s, "ASR x0, x3, #1");
        assert_eq!(s.reg(x(0)) as i64, -4);
    }

    #[test]
    fn division_edge_cases() {
        let mut s = ArchState::new(64);
        s.set_reg(x(1), 7);
        s.set_reg(x(2), 0);
        run(&mut s, "UDIV x0, x1, x2");
        assert_eq!(s.reg(x(0)), 0, "divide by zero yields zero");
        run(&mut s, "SDIV x0, x1, x2");
        assert_eq!(s.reg(x(0)), 0);
        s.set_reg(x(1), i64::MIN as u64);
        s.set_reg(x(2), (-1i64) as u64);
        run(&mut s, "SDIV x0, x1, x2");
        assert_eq!(s.reg(x(0)), i64::MIN as u64, "overflow case preserved");
    }

    #[test]
    fn smulh_computes_high_bits() {
        let mut s = ArchState::new(64);
        s.set_reg(x(1), 1u64 << 40);
        s.set_reg(x(2), 1u64 << 40);
        run(&mut s, "SMULH x0, x1, x2");
        assert_eq!(s.reg(x(0)), 1u64 << 16);
    }

    #[test]
    fn scalar_fp_lane0_only() {
        let mut s = ArchState::new(64);
        s.set_vreg(v(1), [2.0f64.to_bits(), 777]);
        s.set_vreg(v(2), [3.0f64.to_bits(), 888]);
        s.set_vreg(v(0), [0, 999]);
        run(&mut s, "FMUL v0, v1, v2");
        let lanes = s.vreg(v(0));
        assert_eq!(f64::from_bits(lanes[0]), 6.0);
        assert_eq!(lanes[1], 999, "lane 1 preserved by scalar op");
    }

    #[test]
    fn fmla_accumulates_in_dst() {
        let mut s = ArchState::new(64);
        s.set_vreg(v(0), [10.0f64.to_bits(), 0]);
        s.set_vreg(v(1), [2.0f64.to_bits(), 0]);
        s.set_vreg(v(2), [3.0f64.to_bits(), 0]);
        run(&mut s, "FMLA v0, v1, v2");
        assert_eq!(f64::from_bits(s.vreg(v(0))[0]), 16.0);
    }

    #[test]
    fn fp_nonfinite_sanitized() {
        let mut s = ArchState::new(64);
        s.set_vreg(v(1), [f64::MAX.to_bits(), 0]);
        s.set_vreg(v(2), [f64::MAX.to_bits(), 0]);
        run(&mut s, "FMUL v0, v1, v2");
        assert!(f64::from_bits(s.vreg(v(0))[0]).is_finite());
        s.set_vreg(v(3), [(-1.0f64).to_bits(), 0]);
        run(&mut s, "FSQRT v0, v3");
        assert!(f64::from_bits(s.vreg(v(0))[0]).is_finite());
    }

    #[test]
    fn simd_both_lanes() {
        let mut s = ArchState::new(64);
        s.set_vreg(v(1), [1, 100]);
        s.set_vreg(v(2), [2, 200]);
        run(&mut s, "VADD v0, v1, v2");
        assert_eq!(s.vreg(v(0)), [3, 300]);
        run(&mut s, "VMLA v0, v1, v2");
        assert_eq!(s.vreg(v(0)), [5, 20300]);
        run(&mut s, "VEOR v0, v1, v1");
        assert_eq!(s.vreg(v(0)), [0, 0]);
    }

    #[test]
    fn simd_fp_both_lanes() {
        let mut s = ArchState::new(64);
        s.set_vreg(v(1), [2.0f64.to_bits(), 4.0f64.to_bits()]);
        s.set_vreg(v(2), [3.0f64.to_bits(), 5.0f64.to_bits()]);
        run(&mut s, "VFMUL v0, v1, v2");
        let lanes = s.vreg(v(0));
        assert_eq!(f64::from_bits(lanes[0]), 6.0);
        assert_eq!(f64::from_bits(lanes[1]), 20.0);
    }

    #[test]
    fn load_store_round_trip() {
        let mut s = ArchState::new(256);
        s.set_reg(x(1), 0xDEAD_BEEF_CAFE_F00D);
        s.set_reg(x(10), 64);
        let eff = run(&mut s, "STR x1, [x10, #8]");
        assert_eq!(
            eff.mem,
            Some(MemAccess {
                addr: 72,
                width: 8,
                is_store: true
            })
        );
        run(&mut s, "LDR x2, [x10, #8]");
        assert_eq!(s.reg(x(2)), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn pair_and_vector_memory() {
        let mut s = ArchState::new(256);
        s.set_reg(x(1), 111);
        s.set_reg(x(2), 222);
        s.set_reg(x(10), 32);
        run(&mut s, "STP x1, x2, [x10, #0]");
        run(&mut s, "LDP x3, x4, [x10, #0]");
        assert_eq!((s.reg(x(3)), s.reg(x(4))), (111, 222));
        run(&mut s, "VLDR v0, [x10, #0]");
        assert_eq!(s.vreg(v(0)), [111, 222]);
        s.set_vreg(v(1), [5, 6]);
        run(&mut s, "VSTR v1, [x10, #16]");
        run(&mut s, "LDP x5, x6, [x10, #16]");
        assert_eq!((s.reg(x(5)), s.reg(x(6))), (5, 6));
    }

    #[test]
    fn addresses_wrap_and_align() {
        let mut s = ArchState::new(64);
        s.set_reg(x(10), u64::MAX);
        let eff = run(&mut s, "LDR x0, [x10, #3]");
        let access = eff.mem.unwrap();
        assert!(access.addr < 64);
        assert_eq!(access.addr % 8, 0, "8-byte access is aligned");
        let eff = run(&mut s, "VLDR v0, [x10, #9]");
        assert_eq!(eff.mem.unwrap().addr % 16, 0, "16-byte access is aligned");
    }

    #[test]
    fn branch_semantics() {
        let mut s = ArchState::new(64);
        let eff = run(&mut s, "B #3");
        assert_eq!(eff.flow, Flow::Skip(3));
        assert!(eff.branch_taken);

        s.set_reg(x(1), 0);
        let eff = run(&mut s, "CBZ x1, #2");
        assert_eq!(eff.flow, Flow::Skip(2));
        let eff = run(&mut s, "CBNZ x1, #2");
        assert_eq!(eff.flow, Flow::Sequential);
        assert!(!eff.branch_taken);

        s.set_reg(x(1), 5);
        let eff = run(&mut s, "CBNZ x1, #1");
        assert!(eff.branch_taken);
    }

    #[test]
    fn toggles_reflect_bit_switching() {
        let mut s = ArchState::new(64);
        s.set_reg(x(1), CHECKERBOARD);
        s.set_reg(x(2), !CHECKERBOARD);
        // x0 starts 0; ORR of the two checkerboards = all ones: 64 toggles.
        let eff = run(&mut s, "ORR x0, x1, x2");
        assert_eq!(eff.dest_toggles, 64);
        assert_eq!(eff.src_bits, 64);
        // Re-running writes the same value: zero toggles.
        let eff = run(&mut s, "ORR x0, x1, x2");
        assert_eq!(eff.dest_toggles, 0);
    }

    #[test]
    fn store_toggles_count_memory_flips() {
        let mut s = ArchState::new(64);
        s.set_reg(x(1), u64::MAX);
        s.set_reg(x(10), 0);
        let eff = run(&mut s, "STR x1, [x10, #0]");
        assert_eq!(eff.dest_toggles, 64);
        let eff = run(&mut s, "STR x1, [x10, #0]");
        assert_eq!(eff.dest_toggles, 0);
    }

    #[test]
    fn mem_hash_tracks_stores_incrementally() {
        let rescan = |s: &ArchState| mem_hash_of(s.mem());

        let mut s = ArchState::new(256);
        assert_eq!(s.mem_hash(), 0, "zeroed memory hashes to zero");

        s.set_reg(x(1), CHECKERBOARD);
        s.set_reg(x(10), 8);
        run(&mut s, "STR x1, [x10, #0]");
        run(&mut s, "VSTR v0, [x10, #32]");
        s.set_reg(x(1), 7);
        run(&mut s, "STR x1, [x10, #120]");
        assert_eq!(s.mem_hash(), rescan(&s), "incremental hash matches rescan");

        // Overwriting with the same value keeps the hash unchanged.
        let before = s.mem_hash();
        run(&mut s, "STR x1, [x10, #120]");
        assert_eq!(s.mem_hash(), before);

        // Bulk writes invalidate and the next call rescans.
        s.fill_mem(0xAA);
        assert_eq!(s.mem_hash(), rescan(&s));
        s.mem_mut()[3] = 0x55;
        assert_eq!(s.mem_hash(), rescan(&s));

        // Equal images hash equal regardless of write history.
        let mut t = ArchState::new(256);
        t.mem_mut().copy_from_slice(s.mem());
        assert_eq!(t.mem_hash(), s.mem_hash());
    }

    #[test]
    fn nop_has_no_effect() {
        let mut s = ArchState::new(64);
        let before = s.clone();
        let eff = Instruction::nop().apply(&mut s);
        assert_eq!(s, before);
        assert_eq!(eff, Effect::default());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_mem_size_panics() {
        let _ = ArchState::new(100);
    }

    #[test]
    fn movi_and_vmovi() {
        let mut s = ArchState::new(64);
        run(&mut s, "MOVI x3, #0xAAAAAAAAAAAAAAAA");
        assert_eq!(s.reg(x(3)), CHECKERBOARD);
        run(&mut s, "VMOVI v2, #1, #2");
        assert_eq!(s.vreg(v(2)), [1, 2]);
    }
}
