//! Architectural register names.

use crate::IsaError;
use std::fmt;
use std::str::FromStr;

/// Number of architectural integer registers (`x0` … `x15`).
pub const NUM_INT_REGS: u8 = 16;
/// Number of architectural vector registers (`v0` … `v15`).
pub const NUM_VEC_REGS: u8 = 16;

/// A 64-bit integer register, `x0` through `x15`.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), gest_isa::IsaError> {
/// let r: gest_isa::Reg = "x7".parse()?;
/// assert_eq!(r.index(), 7);
/// assert_eq!(r.to_string(), "x7");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub(crate) u8);

impl Reg {
    /// Creates an integer register from its index.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::InvalidRegister`] if `index >= 16`.
    pub fn new(index: u8) -> Result<Reg, IsaError> {
        if index < NUM_INT_REGS {
            Ok(Reg(index))
        } else {
            Err(IsaError::InvalidRegister {
                index,
                limit: NUM_INT_REGS,
            })
        }
    }

    /// The register's index within the integer register file.
    pub fn index(self) -> u8 {
        self.0
    }

    /// Iterates over every integer register in index order.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..NUM_INT_REGS).map(Reg)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl FromStr for Reg {
    type Err = IsaError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_reg(s, 'x').map(Reg::new).unwrap_or_else(|| {
            Err(IsaError::Syntax {
                line: 1,
                message: format!("invalid integer register {s:?}"),
            })
        })
    }
}

/// A 128-bit vector/floating-point register, `v0` through `v15`.
///
/// Scalar floating-point instructions use lane 0; SIMD instructions operate
/// on both 64-bit lanes.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), gest_isa::IsaError> {
/// let v: gest_isa::VReg = "v3".parse()?;
/// assert_eq!(v.to_string(), "v3");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(pub(crate) u8);

impl VReg {
    /// Creates a vector register from its index.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::InvalidRegister`] if `index >= 16`.
    pub fn new(index: u8) -> Result<VReg, IsaError> {
        if index < NUM_VEC_REGS {
            Ok(VReg(index))
        } else {
            Err(IsaError::InvalidRegister {
                index,
                limit: NUM_VEC_REGS,
            })
        }
    }

    /// The register's index within the vector register file.
    pub fn index(self) -> u8 {
        self.0
    }

    /// Iterates over every vector register in index order.
    pub fn all() -> impl Iterator<Item = VReg> {
        (0..NUM_VEC_REGS).map(VReg)
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl FromStr for VReg {
    type Err = IsaError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_reg(s, 'v').map(VReg::new).unwrap_or_else(|| {
            Err(IsaError::Syntax {
                line: 1,
                message: format!("invalid vector register {s:?}"),
            })
        })
    }
}

fn parse_reg(s: &str, prefix: char) -> Option<u8> {
    let rest = s.strip_prefix(prefix)?;
    if rest.is_empty() || rest.len() > 3 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse::<u8>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_round_trip() {
        for r in Reg::all() {
            let back: Reg = r.to_string().parse().unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn vreg_round_trip() {
        for v in VReg::all() {
            let back: VReg = v.to_string().parse().unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(Reg::new(16).is_err());
        assert!(VReg::new(200).is_err());
        assert!("x16".parse::<Reg>().is_err());
        assert!("x999".parse::<Reg>().is_err());
    }

    #[test]
    fn junk_rejected() {
        assert!("y1".parse::<Reg>().is_err());
        assert!("x".parse::<Reg>().is_err());
        assert!("x1a".parse::<Reg>().is_err());
        assert!("v-1".parse::<VReg>().is_err());
    }

    #[test]
    fn all_counts() {
        assert_eq!(Reg::all().count(), NUM_INT_REGS as usize);
        assert_eq!(VReg::all().count(), NUM_VEC_REGS as usize);
    }
}
