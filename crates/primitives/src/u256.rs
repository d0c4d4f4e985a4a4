//! A 256-bit unsigned integer implemented from scratch.
//!
//! Ethereum's difficulty, balances and gas accounting all operate on 256-bit
//! unsigned values. This module provides the arithmetic subset those code paths
//! need: add/sub/mul/div/rem, shifts, bit operations, ordering, decimal and hex
//! parsing/formatting, plus checked/overflowing/saturating variants.
//!
//! Representation is four little-endian `u64` limbs (`limbs[0]` is least
//! significant). All arithmetic is constant-size (no heap allocation).

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{
    Add, AddAssign, BitAnd, BitOr, BitXor, Div, Mul, MulAssign, Not, Rem, Shl, Shr, Sub, SubAssign,
};
use core::str::FromStr;

use crate::error::PrimitiveError;

/// A 256-bit unsigned integer, stored as four little-endian 64-bit limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub [u64; 4]);

impl U256 {
    /// The value `0`.
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    /// The value `1`.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The maximum representable value, `2^256 - 1`.
    pub const MAX: U256 = U256([u64::MAX; 4]);

    /// Constructs from a `u64`.
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Constructs from a `u128`.
    #[inline]
    pub const fn from_u128(v: u128) -> Self {
        U256([v as u64, (v >> 64) as u64, 0, 0])
    }

    /// Returns true if the value is zero.
    #[inline]
    pub const fn is_zero(&self) -> bool {
        self.0[0] == 0 && self.0[1] == 0 && self.0[2] == 0 && self.0[3] == 0
    }

    /// Returns the low 64 bits, discarding the rest.
    #[inline]
    pub const fn low_u64(&self) -> u64 {
        self.0[0]
    }

    /// Returns the low 128 bits, discarding the rest.
    #[inline]
    pub const fn low_u128(&self) -> u128 {
        (self.0[0] as u128) | ((self.0[1] as u128) << 64)
    }

    /// Converts to `u64` if the value fits, otherwise `None`.
    pub fn to_u64(&self) -> Option<u64> {
        if self.0[1] == 0 && self.0[2] == 0 && self.0[3] == 0 {
            Some(self.0[0])
        } else {
            None
        }
    }

    /// Lossy conversion to `f64` (used by analytics where exactness is not
    /// required, e.g. plotting difficulty in units of 10^13).
    pub fn to_f64_lossy(&self) -> f64 {
        let mut acc = 0.0f64;
        // Horner evaluation over limbs, most significant first.
        for limb in self.0.iter().rev() {
            acc = acc * 1.8446744073709552e19 + (*limb as f64);
        }
        acc
    }

    /// Number of significant bits (`0` for zero).
    pub fn bits(&self) -> u32 {
        for (i, limb) in self.0.iter().enumerate().rev() {
            if *limb != 0 {
                return (i as u32) * 64 + (64 - limb.leading_zeros());
            }
        }
        0
    }

    /// Value of bit `i` (little-endian bit order); bits ≥ 256 read as zero.
    pub fn bit(&self, i: u32) -> bool {
        if i >= 256 {
            return false;
        }
        (self.0[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Wrapping addition with a carry-out flag.
    pub fn overflowing_add(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        for (i, limb) in out.iter_mut().enumerate() {
            let (a, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (b, c2) = a.overflowing_add(carry as u64);
            *limb = b;
            carry = c1 | c2;
        }
        (U256(out), carry)
    }

    /// Wrapping subtraction with a borrow-out flag.
    pub fn overflowing_sub(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for (i, limb) in out.iter_mut().enumerate() {
            let (a, b1) = self.0[i].overflowing_sub(rhs.0[i]);
            let (b, b2) = a.overflowing_sub(borrow as u64);
            *limb = b;
            borrow = b1 | b2;
        }
        (U256(out), borrow)
    }

    /// Wrapping multiplication with an overflow flag.
    pub fn overflowing_mul(self, rhs: U256) -> (U256, bool) {
        // Schoolbook multiply over 64-bit limbs into a 512-bit accumulator.
        let mut wide = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let idx = i + j;
                let cur = wide[idx] as u128;
                let prod = (self.0[i] as u128) * (rhs.0[j] as u128) + cur + carry;
                wide[idx] = prod as u64;
                carry = prod >> 64;
            }
            // Propagate the remaining carry above the partial product.
            let mut idx = i + 4;
            while carry != 0 && idx < 8 {
                let sum = wide[idx] as u128 + carry;
                wide[idx] = sum as u64;
                carry = sum >> 64;
                idx += 1;
            }
        }
        let overflow = wide[4] | wide[5] | wide[6] | wide[7] != 0;
        (U256([wide[0], wide[1], wide[2], wide[3]]), overflow)
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: U256) -> Option<U256> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Checked subtraction; `None` on underflow.
    pub fn checked_sub(self, rhs: U256) -> Option<U256> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Checked multiplication; `None` on overflow.
    pub fn checked_mul(self, rhs: U256) -> Option<U256> {
        match self.overflowing_mul(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Checked division; `None` when `rhs` is zero.
    pub fn checked_div(self, rhs: U256) -> Option<U256> {
        if rhs.is_zero() {
            None
        } else {
            Some(self.div_rem(rhs).0)
        }
    }

    /// Checked remainder; `None` when `rhs` is zero.
    pub fn checked_rem(self, rhs: U256) -> Option<U256> {
        if rhs.is_zero() {
            None
        } else {
            Some(self.div_rem(rhs).1)
        }
    }

    /// Saturating addition (clamps at [`U256::MAX`]).
    pub fn saturating_add(self, rhs: U256) -> U256 {
        self.checked_add(rhs).unwrap_or(U256::MAX)
    }

    /// Saturating subtraction (clamps at zero).
    pub fn saturating_sub(self, rhs: U256) -> U256 {
        self.checked_sub(rhs).unwrap_or(U256::ZERO)
    }

    /// Saturating multiplication (clamps at [`U256::MAX`]).
    pub fn saturating_mul(self, rhs: U256) -> U256 {
        self.checked_mul(rhs).unwrap_or(U256::MAX)
    }

    /// Simultaneous quotient and remainder.
    ///
    /// # Panics
    /// Panics if `divisor` is zero; use [`U256::checked_div`] on untrusted input.
    pub fn div_rem(self, divisor: U256) -> (U256, U256) {
        assert!(!divisor.is_zero(), "U256 division by zero");
        if self < divisor {
            return (U256::ZERO, self);
        }
        // Fast path: both fit in u128.
        if self.0[2] == 0 && self.0[3] == 0 && divisor.0[2] == 0 && divisor.0[3] == 0 {
            let a = self.low_u128();
            let b = divisor.low_u128();
            return (U256::from_u128(a / b), U256::from_u128(a % b));
        }
        // Fast path: divisor fits in one limb.
        if divisor.0[1] == 0 && divisor.0[2] == 0 && divisor.0[3] == 0 {
            let d = divisor.0[0];
            let mut rem: u128 = 0;
            let mut q = [0u64; 4];
            for i in (0..4).rev() {
                let cur = (rem << 64) | (self.0[i] as u128);
                q[i] = (cur / d as u128) as u64;
                rem = cur % d as u128;
            }
            return (U256(q), U256::from_u64(rem as u64));
        }
        // General case: binary long division.
        let mut quotient = U256::ZERO;
        let mut remainder = U256::ZERO;
        let n = self.bits();
        for i in (0..n).rev() {
            remainder = remainder << 1;
            if self.bit(i) {
                remainder.0[0] |= 1;
            }
            if remainder >= divisor {
                remainder -= divisor;
                quotient.0[(i / 64) as usize] |= 1 << (i % 64);
            }
        }
        (quotient, remainder)
    }

    /// `2^exp`, wrapping for `exp >= 256`.
    pub fn pow2(exp: u32) -> U256 {
        if exp >= 256 {
            return U256::ZERO;
        }
        U256::ONE << exp
    }

    /// Exponentiation by squaring (wrapping on overflow, as in the EVM's EXP).
    pub fn wrapping_pow(self, mut exp: u64) -> U256 {
        let mut base = self;
        let mut acc = U256::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.overflowing_mul(base).0;
            }
            base = base.overflowing_mul(base).0;
            exp >>= 1;
        }
        acc
    }

    /// Whether bit 255 is set — the sign bit under the EVM's two's-complement
    /// interpretation.
    pub fn is_negative_signed(&self) -> bool {
        self.bit(255)
    }

    /// Two's-complement negation (wrapping).
    pub fn wrapping_neg(self) -> U256 {
        (!self).overflowing_add(U256::ONE).0
    }

    /// EVM `SDIV`: signed division, truncating toward zero; `x / 0 = 0` and
    /// `MIN / −1 = MIN` (the yellow paper's overflow case).
    pub fn sdiv(self, rhs: U256) -> U256 {
        if rhs.is_zero() {
            return U256::ZERO;
        }
        let min = U256::pow2(255);
        if self == min && rhs == U256::MAX {
            return min; // -2^255 / -1 overflows back to -2^255
        }
        let (na, nb) = (self.is_negative_signed(), rhs.is_negative_signed());
        let a = if na { self.wrapping_neg() } else { self };
        let b = if nb { rhs.wrapping_neg() } else { rhs };
        let q = a / b;
        if na != nb {
            q.wrapping_neg()
        } else {
            q
        }
    }

    /// EVM `SMOD`: signed remainder; result takes the dividend's sign,
    /// `x % 0 = 0`.
    pub fn smod(self, rhs: U256) -> U256 {
        if rhs.is_zero() {
            return U256::ZERO;
        }
        let na = self.is_negative_signed();
        let a = if na { self.wrapping_neg() } else { self };
        let b = if rhs.is_negative_signed() {
            rhs.wrapping_neg()
        } else {
            rhs
        };
        let r = a % b;
        if na {
            r.wrapping_neg()
        } else {
            r
        }
    }

    /// Signed comparison under two's complement (EVM `SLT`).
    pub fn slt(&self, rhs: &U256) -> bool {
        match (self.is_negative_signed(), rhs.is_negative_signed()) {
            (true, false) => true,
            (false, true) => false,
            _ => self < rhs,
        }
    }

    /// `(a + b) % m` without intermediate overflow (EVM `ADDMOD`); 0 when
    /// `m` is zero.
    pub fn addmod(self, rhs: U256, m: U256) -> U256 {
        if m.is_zero() {
            return U256::ZERO;
        }
        // Work modulo m on 256-bit values: reduce first, then handle the
        // single possible carry.
        let a = self % m;
        let b = rhs % m;
        let (sum, carry) = a.overflowing_add(b);
        if carry {
            // a + b = 2^256 + sum; 2^256 mod m == (MAX mod m + 1) mod m.
            let wrap = (U256::MAX % m).overflowing_add(U256::ONE).0 % m;
            (sum % m).overflowing_add(wrap).0 % m
        } else {
            sum % m
        }
    }

    /// `(a × b) % m` without intermediate overflow (EVM `MULMOD`); 0 when
    /// `m` is zero. Schoolbook double-and-add — not a hot path.
    pub fn mulmod(self, rhs: U256, m: U256) -> U256 {
        if m.is_zero() {
            return U256::ZERO;
        }
        let mut acc = U256::ZERO;
        let mut a = self % m;
        let b = rhs % m;
        for i in 0..256 {
            if b.bit(i) {
                acc = acc.addmod(a, m);
            }
            a = a.addmod(a, m);
        }
        acc
    }

    /// EVM `SIGNEXTEND`: extend the sign of the value's low `(k+1)` bytes.
    pub fn sign_extend(self, k: U256) -> U256 {
        let Some(k) = k.to_u64() else { return self };
        if k >= 31 {
            return self;
        }
        let bit = (k as u32) * 8 + 7;
        let mask = (U256::ONE << (bit + 1)).overflowing_sub(U256::ONE).0;
        if self.bit(bit) {
            self | !mask
        } else {
            self & mask
        }
    }

    /// Big-endian 32-byte serialization.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[(3 - i) * 8..(4 - i) * 8].copy_from_slice(&self.0[i].to_be_bytes());
        }
        out
    }

    /// Parses from big-endian bytes (up to 32; shorter slices are
    /// left-padded with zeros, matching RLP's minimal integer encoding).
    pub fn from_be_slice(bytes: &[u8]) -> Result<U256, PrimitiveError> {
        if bytes.len() > 32 {
            return Err(PrimitiveError::IntegerTooLarge { len: bytes.len() });
        }
        let mut padded = [0u8; 32];
        padded[32 - bytes.len()..].copy_from_slice(bytes);
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&padded[(3 - i) * 8..(4 - i) * 8]);
            limbs[i] = u64::from_be_bytes(chunk);
        }
        Ok(U256(limbs))
    }

    /// Big-endian serialization with leading zero bytes stripped (the RLP
    /// canonical integer form). Zero encodes as the empty slice.
    pub fn to_be_bytes_trimmed(&self) -> Vec<u8> {
        let full = self.to_be_bytes();
        let start = full.iter().position(|&b| b != 0).unwrap_or(32);
        full[start..].to_vec()
    }

    /// Parses a decimal string.
    pub fn from_dec_str(s: &str) -> Result<U256, PrimitiveError> {
        if s.is_empty() {
            return Err(PrimitiveError::EmptyInteger);
        }
        let mut acc = U256::ZERO;
        let ten = U256::from_u64(10);
        for c in s.bytes() {
            let d = match c {
                b'0'..=b'9' => c - b'0',
                b'_' => continue,
                _ => return Err(PrimitiveError::InvalidDigit { byte: c }),
            };
            acc = acc
                .checked_mul(ten)
                .and_then(|v| v.checked_add(U256::from_u64(d as u64)))
                .ok_or(PrimitiveError::IntegerOverflow)?;
        }
        Ok(acc)
    }

    /// Formats as a decimal string.
    pub fn to_dec_string(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut digits = Vec::new();
        let mut cur = *self;
        let ten = U256::from_u64(10);
        while !cur.is_zero() {
            let (q, r) = cur.div_rem(ten);
            digits.push(b'0' + r.low_u64() as u8);
            cur = q;
        }
        digits.reverse();
        String::from_utf8(digits).expect("digits are ASCII")
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for U256 {
    type Output = U256;
    fn add(self, rhs: U256) -> U256 {
        let (v, overflow) = self.overflowing_add(rhs);
        debug_assert!(!overflow, "U256 add overflow");
        v
    }
}

impl AddAssign for U256 {
    fn add_assign(&mut self, rhs: U256) {
        *self = *self + rhs;
    }
}

impl Sub for U256 {
    type Output = U256;
    fn sub(self, rhs: U256) -> U256 {
        let (v, underflow) = self.overflowing_sub(rhs);
        debug_assert!(!underflow, "U256 sub underflow");
        v
    }
}

impl SubAssign for U256 {
    fn sub_assign(&mut self, rhs: U256) {
        *self = *self - rhs;
    }
}

impl Mul for U256 {
    type Output = U256;
    fn mul(self, rhs: U256) -> U256 {
        let (v, overflow) = self.overflowing_mul(rhs);
        debug_assert!(!overflow, "U256 mul overflow");
        v
    }
}

impl MulAssign for U256 {
    fn mul_assign(&mut self, rhs: U256) {
        *self = *self * rhs;
    }
}

impl Div for U256 {
    type Output = U256;
    fn div(self, rhs: U256) -> U256 {
        self.div_rem(rhs).0
    }
}

impl Rem for U256 {
    type Output = U256;
    fn rem(self, rhs: U256) -> U256 {
        self.div_rem(rhs).1
    }
}

impl Shl<u32> for U256 {
    type Output = U256;
    fn shl(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        for i in (limb_shift..4).rev() {
            out[i] = self.0[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                out[i] |= self.0[i - limb_shift - 1] >> (64 - bit_shift);
            }
        }
        U256(out)
    }
}

impl Shr<u32> for U256 {
    type Output = U256;
    fn shr(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        for (i, limb) in out.iter_mut().enumerate().take(4 - limb_shift) {
            *limb = self.0[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < 4 {
                *limb |= self.0[i + limb_shift + 1] << (64 - bit_shift);
            }
        }
        U256(out)
    }
}

impl BitAnd for U256 {
    type Output = U256;
    fn bitand(self, rhs: U256) -> U256 {
        U256([
            self.0[0] & rhs.0[0],
            self.0[1] & rhs.0[1],
            self.0[2] & rhs.0[2],
            self.0[3] & rhs.0[3],
        ])
    }
}

impl BitOr for U256 {
    type Output = U256;
    fn bitor(self, rhs: U256) -> U256 {
        U256([
            self.0[0] | rhs.0[0],
            self.0[1] | rhs.0[1],
            self.0[2] | rhs.0[2],
            self.0[3] | rhs.0[3],
        ])
    }
}

impl BitXor for U256 {
    type Output = U256;
    fn bitxor(self, rhs: U256) -> U256 {
        U256([
            self.0[0] ^ rhs.0[0],
            self.0[1] ^ rhs.0[1],
            self.0[2] ^ rhs.0[2],
            self.0[3] ^ rhs.0[3],
        ])
    }
}

impl Not for U256 {
    type Output = U256;
    fn not(self) -> U256 {
        U256([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
}

impl Sum for U256 {
    fn sum<I: Iterator<Item = U256>>(iter: I) -> U256 {
        iter.fold(U256::ZERO, |a, b| a + b)
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        U256::from_u128(v)
    }
}

impl From<u32> for U256 {
    fn from(v: u32) -> Self {
        U256::from_u64(v as u64)
    }
}

impl FromStr for U256 {
    type Err = PrimitiveError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(hex) = s.strip_prefix("0x") {
            let bytes = crate::hex::decode(hex)?;
            U256::from_be_slice(&bytes)
        } else {
            U256::from_dec_str(s)
        }
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256({})", self.to_dec_string())
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_dec_string())
    }
}

impl fmt::LowerHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.alternate() {
            f.write_str("0x")?;
        }
        let bytes = self.to_be_bytes_trimmed();
        if bytes.is_empty() {
            return f.write_str("0");
        }
        // Strip the leading nibble if it is zero (minimal hex form).
        let s = crate::hex::encode(&bytes);
        let s = s.strip_prefix('0').filter(|r| !r.is_empty()).unwrap_or(&s);
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> U256 {
        U256::from_u64(v)
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = U256([u64::MAX, 0, 0, 0]);
        let b = u(1);
        assert_eq!(a + b, U256([0, 1, 0, 0]));
    }

    #[test]
    fn overflowing_add_wraps_at_max() {
        let (v, o) = U256::MAX.overflowing_add(U256::ONE);
        assert!(o);
        assert_eq!(v, U256::ZERO);
    }

    #[test]
    fn sub_with_borrow_across_limbs() {
        let a = U256([0, 1, 0, 0]);
        assert_eq!(a - u(1), U256([u64::MAX, 0, 0, 0]));
    }

    #[test]
    fn overflowing_sub_underflow_flag() {
        let (v, o) = U256::ZERO.overflowing_sub(U256::ONE);
        assert!(o);
        assert_eq!(v, U256::MAX);
    }

    #[test]
    fn mul_small_matches_u128() {
        let a = u(0xDEAD_BEEF);
        let b = u(0xCAFE_BABE);
        let expect = 0xDEAD_BEEFu128 * 0xCAFE_BABEu128;
        assert_eq!(a * b, U256::from_u128(expect));
    }

    #[test]
    fn mul_carry_propagation() {
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let a = U256([u64::MAX, 0, 0, 0]);
        let sq = a * a;
        let expect = U256::from_u128((u64::MAX as u128) * (u64::MAX as u128));
        assert_eq!(sq, expect);
    }

    #[test]
    fn mul_overflow_detected() {
        let big = U256::pow2(200);
        let (_, o) = big.overflowing_mul(big);
        assert!(o);
        assert_eq!(big.checked_mul(big), None);
    }

    #[test]
    fn div_rem_basic() {
        let (q, r) = u(100).div_rem(u(7));
        assert_eq!(q, u(14));
        assert_eq!(r, u(2));
    }

    #[test]
    fn div_rem_wide_values() {
        let a = U256::pow2(200) + u(12345);
        let b = U256::pow2(100) + u(7);
        let (q, r) = a.div_rem(b);
        assert_eq!(q * b + r, a);
        assert!(r < b);
    }

    #[test]
    fn div_by_single_limb() {
        let a = U256::pow2(250);
        let (q, r) = a.div_rem(u(1_000_000_007));
        assert_eq!(q * u(1_000_000_007) + r, a);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = u(1).div_rem(U256::ZERO);
    }

    #[test]
    fn checked_div_by_zero_is_none() {
        assert_eq!(u(5).checked_div(U256::ZERO), None);
        assert_eq!(u(5).checked_rem(U256::ZERO), None);
    }

    #[test]
    fn shl_shr_roundtrip() {
        let v = U256::from_u128(0x1234_5678_9ABC_DEF0_1122_3344_5566_7788);
        for s in [0u32, 1, 7, 63, 64, 65, 127, 128, 200] {
            let shifted = v << s;
            // Shifting back loses high bits only if they overflowed 256.
            if v.bits() + s <= 256 {
                assert_eq!(shifted >> s, v, "shift {s}");
            }
        }
        assert_eq!(v << 256, U256::ZERO);
        assert_eq!(v >> 256, U256::ZERO);
    }

    #[test]
    fn ordering_across_limbs() {
        assert!(U256([0, 0, 0, 1]) > U256([u64::MAX, u64::MAX, u64::MAX, 0]));
        assert!(u(5) < u(6));
        assert_eq!(u(7).cmp(&u(7)), Ordering::Equal);
    }

    #[test]
    fn dec_string_roundtrip() {
        for s in [
            "0",
            "1",
            "14",
            "1000000000000000000",
            "115792089237316195423570985008687907853269984665640564039457584007913129639935",
        ] {
            let v = U256::from_dec_str(s).unwrap();
            assert_eq!(v.to_dec_string(), s);
        }
    }

    #[test]
    fn dec_parse_overflow_rejected() {
        // 2^256 exactly
        let s = "115792089237316195423570985008687907853269984665640564039457584007913129639936";
        assert!(matches!(
            U256::from_dec_str(s),
            Err(PrimitiveError::IntegerOverflow)
        ));
    }

    #[test]
    fn dec_parse_rejects_garbage() {
        assert!(U256::from_dec_str("12a4").is_err());
        assert!(U256::from_dec_str("").is_err());
    }

    #[test]
    fn be_bytes_roundtrip() {
        let v = U256::from_dec_str("123456789012345678901234567890").unwrap();
        let bytes = v.to_be_bytes();
        assert_eq!(U256::from_be_slice(&bytes).unwrap(), v);
        let trimmed = v.to_be_bytes_trimmed();
        assert!(trimmed[0] != 0);
        assert_eq!(U256::from_be_slice(&trimmed).unwrap(), v);
    }

    #[test]
    fn be_slice_too_long_rejected() {
        assert!(U256::from_be_slice(&[0u8; 33]).is_err());
    }

    #[test]
    fn zero_trimmed_is_empty() {
        assert!(U256::ZERO.to_be_bytes_trimmed().is_empty());
    }

    #[test]
    fn hex_parse() {
        let v: U256 = "0x0de0b6b3a7640000".parse().unwrap();
        assert_eq!(v, U256::from_u128(1_000_000_000_000_000_000));
    }

    #[test]
    fn lower_hex_format() {
        assert_eq!(format!("{:x}", U256::from_u64(0xABCDE)), "abcde");
        assert_eq!(format!("{:#x}", U256::from_u64(0)), "0x0");
    }

    #[test]
    fn wrapping_pow_matches_naive() {
        let b = u(3);
        let mut expect = U256::ONE;
        for e in 0..20u64 {
            assert_eq!(b.wrapping_pow(e), expect);
            expect *= b;
        }
    }

    #[test]
    fn pow2_values() {
        assert_eq!(U256::pow2(0), U256::ONE);
        assert_eq!(U256::pow2(64), U256([0, 1, 0, 0]));
        assert_eq!(U256::pow2(255).bits(), 256);
        assert_eq!(U256::pow2(256), U256::ZERO);
    }

    #[test]
    fn to_f64_lossy_scale() {
        let v = U256::from_u128(5_000_000_000_000_000_000); // 5e18
        let f = v.to_f64_lossy();
        assert!((f - 5e18).abs() / 5e18 < 1e-9);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(U256::MAX.saturating_add(U256::ONE), U256::MAX);
        assert_eq!(U256::ZERO.saturating_sub(U256::ONE), U256::ZERO);
        assert_eq!(U256::pow2(255).saturating_mul(u(4)), U256::MAX);
    }

    #[test]
    fn sum_iterator() {
        let total: U256 = (1..=10u64).map(U256::from_u64).sum();
        assert_eq!(total, u(55));
    }

    #[test]
    fn signed_negation_and_sign_bit() {
        let one = U256::ONE;
        let neg_one = one.wrapping_neg();
        assert_eq!(neg_one, U256::MAX);
        assert!(neg_one.is_negative_signed());
        assert!(!one.is_negative_signed());
        assert_eq!(neg_one.wrapping_neg(), one);
        assert_eq!(U256::ZERO.wrapping_neg(), U256::ZERO);
    }

    #[test]
    fn sdiv_evm_semantics() {
        let n = |v: u64| U256::from_u64(v).wrapping_neg();
        // 7 / 2 = 3, -7 / 2 = -3 (truncate toward zero).
        assert_eq!(u(7).sdiv(u(2)), u(3));
        assert_eq!(n(7).sdiv(u(2)), n(3));
        assert_eq!(u(7).sdiv(n(2)), n(3));
        assert_eq!(n(7).sdiv(n(2)), u(3));
        // Division by zero = 0.
        assert_eq!(u(7).sdiv(U256::ZERO), U256::ZERO);
        // MIN / -1 = MIN (the overflow case).
        let min = U256::pow2(255);
        assert_eq!(min.sdiv(U256::MAX), min);
    }

    #[test]
    fn smod_takes_dividend_sign() {
        let n = |v: u64| U256::from_u64(v).wrapping_neg();
        assert_eq!(u(7).smod(u(3)), u(1));
        assert_eq!(n(7).smod(u(3)), n(1));
        assert_eq!(u(7).smod(n(3)), u(1));
        assert_eq!(n(7).smod(n(3)), n(1));
        assert_eq!(u(7).smod(U256::ZERO), U256::ZERO);
    }

    #[test]
    fn slt_signed_ordering() {
        let neg_one = U256::MAX;
        assert!(neg_one.slt(&U256::ZERO));
        assert!(!U256::ZERO.slt(&neg_one));
        assert!(u(1).slt(&u(2)));
        assert!(U256::pow2(255).slt(&U256::ZERO), "MIN < 0");
    }

    #[test]
    fn addmod_handles_carry() {
        assert_eq!(u(10).addmod(u(10), u(8)), u(4));
        assert_eq!(u(5).addmod(u(3), U256::ZERO), U256::ZERO);
        // MAX + MAX mod MAX = 0; via 2^256 wrap handling.
        assert_eq!(U256::MAX.addmod(U256::MAX, U256::MAX), U256::ZERO);
        // (2^255 + 2^255) mod (2^255 + 1): 2^256 = 2*(2^255+1) - 2
        // => result = (2^255+1) - 2 + ... compute independently:
        let m = U256::pow2(255) + U256::ONE;
        let r = U256::pow2(255).addmod(U256::pow2(255), m);
        // 2^256 mod (2^255+1) = 2^256 - 2*(2^255+1) + ... = 2^256-2^256-2 -> wraps
        // Cross-check against mulmod: 2 * 2^255 mod m.
        assert_eq!(r, U256::from_u64(2).mulmod(U256::pow2(255), m));
    }

    #[test]
    fn mulmod_matches_naive_small() {
        for a in [0u64, 1, 7, 255, 1 << 20] {
            for b in [0u64, 3, 13, 1 << 30] {
                for m in [1u64, 2, 97, 1 << 16] {
                    let expect = ((a as u128 * b as u128) % m as u128) as u64;
                    assert_eq!(u(a).mulmod(u(b), u(m)), u(expect), "{a} * {b} mod {m}");
                }
            }
        }
        assert_eq!(u(5).mulmod(u(5), U256::ZERO), U256::ZERO);
    }

    #[test]
    fn mulmod_wide_values() {
        // (2^200)^2 mod (2^199 + 1): verify by reduction identities.
        let a = U256::pow2(200);
        let m = U256::pow2(199) + U256::ONE;
        let r = a.mulmod(a, m);
        assert!(r < m);
        // Sanity: (a mod m)^2 mod m computed stepwise must agree.
        let a_red = a % m;
        assert_eq!(a_red.mulmod(a_red, m), r);
    }

    #[test]
    fn sign_extend_semantics() {
        // Extend byte 0: 0xFF -> -1.
        assert_eq!(u(0xFF).sign_extend(U256::ZERO), U256::MAX);
        assert_eq!(u(0x7F).sign_extend(U256::ZERO), u(0x7F));
        // Extend byte 1: 0x80FF has sign bit set in byte 1.
        let v = u(0x80FF).sign_extend(U256::ONE);
        assert!(v.is_negative_signed());
        assert_eq!(v.low_u64() & 0xFFFF, 0x80FF);
        // k >= 31: identity.
        assert_eq!(u(0x1234).sign_extend(u(31)), u(0x1234));
        assert_eq!(u(0x1234).sign_extend(U256::MAX), u(0x1234));
    }

    #[test]
    fn bit_access() {
        let v = U256::pow2(100);
        assert!(v.bit(100));
        assert!(!v.bit(99));
        assert!(!v.bit(300));
    }
}
