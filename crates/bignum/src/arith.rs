//! Addition, subtraction, multiplication, and shifts for [`Ubig`].

use crate::Ubig;
use std::ops::{Add, AddAssign, Mul, Shl, Shr, Sub, SubAssign};

impl Ubig {
    /// `self + rhs` where `rhs` is a single limb.
    pub fn add_u64(&self, rhs: u64) -> Ubig {
        let mut out = self.clone();
        out.add_u64_assign(rhs);
        out
    }

    /// In-place `self += rhs` for a single limb.
    pub fn add_u64_assign(&mut self, rhs: u64) {
        let mut carry = rhs;
        for limb in &mut self.limbs {
            let (s, c) = limb.overflowing_add(carry);
            *limb = s;
            carry = c as u64;
            if carry == 0 {
                return;
            }
        }
        if carry != 0 {
            self.limbs.push(carry);
        }
    }

    /// Checked subtraction: `None` if `rhs > self`.
    pub fn checked_sub(&self, rhs: &Ubig) -> Option<Ubig> {
        if self < rhs {
            return None;
        }
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let r = rhs.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(r);
            let (d2, b2) = d1.overflowing_sub(borrow);
            limbs.push(d2);
            borrow = (b1 | b2) as u64;
        }
        debug_assert_eq!(borrow, 0);
        Some(Ubig::from_limbs(limbs))
    }

    /// `self * rhs` where `rhs` is a single limb.
    pub fn mul_u64(&self, rhs: u64) -> Ubig {
        if rhs == 0 || self.is_zero() {
            return Ubig::zero();
        }
        let mut limbs = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let p = l as u128 * rhs as u128 + carry;
            limbs.push(p as u64);
            carry = p >> 64;
        }
        if carry != 0 {
            limbs.push(carry as u64);
        }
        Ubig::from_limbs(limbs)
    }

    /// Schoolbook multiplication. Operand sizes in this workspace are tiny
    /// (a few dozen limbs at most — `⌈log₂ n!⌉/64`), so the quadratic
    /// algorithm is both simplest and fastest here.
    fn mul_big(&self, rhs: &Ubig) -> Ubig {
        if self.is_zero() || rhs.is_zero() {
            return Ubig::zero();
        }
        let mut acc = vec![0u64; self.limbs.len() + rhs.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in rhs.limbs.iter().enumerate() {
                let p = a as u128 * b as u128 + acc[i + j] as u128 + carry;
                acc[i + j] = p as u64;
                carry = p >> 64;
            }
            let mut k = i + rhs.limbs.len();
            while carry != 0 {
                let s = acc[k] as u128 + carry;
                acc[k] = s as u64;
                carry = s >> 64;
                k += 1;
            }
        }
        Ubig::from_limbs(acc)
    }

    /// Left shift by an arbitrary bit count.
    pub fn shl_bits(&self, bits: usize) -> Ubig {
        if self.is_zero() {
            return Ubig::zero();
        }
        let (limb_shift, bit_shift) = (bits / 64, bits % 64);
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        Ubig::from_limbs(limbs)
    }

    /// The low `bits` bits of the value (i.e. `self mod 2^bits`).
    pub fn low_bits(&self, bits: usize) -> Ubig {
        let (limb_count, rem) = (bits / 64, bits % 64);
        if limb_count >= self.limbs.len() {
            return self.clone();
        }
        let mut limbs = self.limbs[..=limb_count].to_vec();
        let last = limbs.last_mut().expect("at least one limb");
        *last &= if rem == 0 { 0 } else { u64::MAX >> (64 - rem) };
        Ubig::from_limbs(limbs)
    }

    /// Right shift by an arbitrary bit count (floor).
    pub fn shr_bits(&self, bits: usize) -> Ubig {
        let (limb_shift, bit_shift) = (bits / 64, bits % 64);
        if limb_shift >= self.limbs.len() {
            return Ubig::zero();
        }
        let src = &self.limbs[limb_shift..];
        let mut limbs = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            limbs.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                limbs.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        Ubig::from_limbs(limbs)
    }
}

impl Add<&Ubig> for &Ubig {
    type Output = Ubig;
    fn add(self, rhs: &Ubig) -> Ubig {
        let (long, short) = if self.limbs.len() >= rhs.limbs.len() {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let mut limbs = Vec::with_capacity(long.limbs.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.limbs.len() {
            let s = short.limbs.get(i).copied().unwrap_or(0);
            let (a, c1) = long.limbs[i].overflowing_add(s);
            let (a, c2) = a.overflowing_add(carry);
            limbs.push(a);
            carry = (c1 | c2) as u64;
        }
        if carry != 0 {
            limbs.push(carry);
        }
        Ubig::from_limbs(limbs)
    }
}

impl Sub<&Ubig> for &Ubig {
    type Output = Ubig;
    /// Panics on underflow, like built-in unsigned subtraction in debug mode.
    fn sub(self, rhs: &Ubig) -> Ubig {
        self.checked_sub(rhs).expect("Ubig subtraction underflow")
    }
}

impl Mul<&Ubig> for &Ubig {
    type Output = Ubig;
    fn mul(self, rhs: &Ubig) -> Ubig {
        self.mul_big(rhs)
    }
}

macro_rules! forward_value_binops {
    ($($trait:ident :: $method:ident),*) => {$(
        impl $trait<Ubig> for Ubig {
            type Output = Ubig;
            fn $method(self, rhs: Ubig) -> Ubig { $trait::$method(&self, &rhs) }
        }
        impl $trait<&Ubig> for Ubig {
            type Output = Ubig;
            fn $method(self, rhs: &Ubig) -> Ubig { $trait::$method(&self, rhs) }
        }
        impl $trait<Ubig> for &Ubig {
            type Output = Ubig;
            fn $method(self, rhs: Ubig) -> Ubig { $trait::$method(self, &rhs) }
        }
    )*};
}
forward_value_binops!(Add::add, Sub::sub, Mul::mul);

impl AddAssign<&Ubig> for Ubig {
    fn add_assign(&mut self, rhs: &Ubig) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&Ubig> for Ubig {
    fn sub_assign(&mut self, rhs: &Ubig) {
        *self = &*self - rhs;
    }
}

impl Shl<usize> for &Ubig {
    type Output = Ubig;
    fn shl(self, bits: usize) -> Ubig {
        self.shl_bits(bits)
    }
}

impl Shr<usize> for &Ubig {
    type Output = Ubig;
    fn shr(self, bits: usize) -> Ubig {
        self.shr_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use crate::Ubig;

    #[test]
    fn add_with_carry_chain() {
        let a = Ubig::from(u64::MAX);
        let b = Ubig::from(1u64);
        assert_eq!((&a + &b).to_u128(), Some(u64::MAX as u128 + 1));
    }

    #[test]
    fn add_u64_assign_propagates_carry() {
        let mut a = Ubig::from(u128::MAX);
        a.add_u64_assign(1);
        assert_eq!(a.limbs(), &[0, 0, 1]);
    }

    #[test]
    fn sub_exact_and_underflow() {
        let a = Ubig::from(100u64);
        let b = Ubig::from(58u64);
        assert_eq!((&a - &b).to_u64(), Some(42));
        assert_eq!(b.checked_sub(&a), None);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_panics_on_underflow() {
        let _ = &Ubig::from(1u64) - &Ubig::from(2u64);
    }

    #[test]
    fn sub_borrows_across_limbs() {
        let a = Ubig::from(1u128 << 64);
        let b = Ubig::from(1u64);
        assert_eq!((&a - &b).to_u64(), Some(u64::MAX));
    }

    #[test]
    fn mul_matches_u128() {
        let a = 0xdead_beef_cafe_babeu64;
        let b = 0x1234_5678_9abc_def0u64;
        let p = (&Ubig::from(a) * &Ubig::from(b)).to_u128();
        assert_eq!(p, Some(a as u128 * b as u128));
    }

    #[test]
    fn mul_u64_matches_mul_big() {
        let a = Ubig::factorial(30);
        assert_eq!(a.mul_u64(31), &a * &Ubig::from(31u64));
    }

    #[test]
    fn mul_by_zero() {
        assert!((&Ubig::factorial(10) * &Ubig::zero()).is_zero());
        assert!(Ubig::zero().mul_u64(7).is_zero());
    }

    #[test]
    fn shifts_roundtrip() {
        let v = Ubig::factorial(40);
        for bits in [0usize, 1, 17, 63, 64, 65, 128, 200] {
            assert_eq!(v.shl_bits(bits).shr_bits(bits), v, "bits = {bits}");
        }
    }

    #[test]
    fn shr_discards_low_bits() {
        let v = Ubig::from(0b1011u64);
        assert_eq!(v.shr_bits(2).to_u64(), Some(0b10));
        assert_eq!(v.shr_bits(100), Ubig::zero());
    }

    #[test]
    fn low_bits_is_mod_power_of_two() {
        let v = Ubig::factorial(30);
        for bits in [0usize, 1, 7, 63, 64, 65, 100, 1000] {
            let expect = &v - &v.shr_bits(bits).shl_bits(bits);
            assert_eq!(v.low_bits(bits), expect, "bits = {bits}");
        }
        assert_eq!(Ubig::from(0b1011u64).low_bits(2).to_u64(), Some(0b11));
    }

    #[test]
    fn shl_matches_mul_by_power_of_two() {
        let v = Ubig::factorial(25);
        assert_eq!(v.shl_bits(5), v.mul_u64(32));
    }
}
