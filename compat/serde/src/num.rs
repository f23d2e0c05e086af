//! Numbers as JSON text, written without `core::fmt`.
//!
//! Integers go two digits at a time through one writer. A float is written
//! in the shortest form that reads back to the same bits, laid out the way
//! `Display` lays out an `f64` (no exponent form, `-0` keeps its sign),
//! with a `.0` after an integral value so that it parses back as a float.
//! An integral float below 2^53 is its own integer and takes the integer
//! writer. Every other float takes the digits of Ryu's `d2s` (Adams,
//! "Ryū: fast float-to-string conversion", PLDI 2018), with one change:
//! where two shortest candidates lie exactly as close, std picks the
//! larger and so does this writer, where Ryu picks the even one.

/// 2^53: an integral float below it is exactly an integer, and `Display`
/// prints that integer's digits.
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

/// `"00" "01" … "99"`: two digits per lookup.
static PAIRS: [u8; 200] = pairs();

const fn pairs() -> [u8; 200] {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
}

/// Writes `n` in decimal at the tail of `buf`; returns where it starts.
#[inline]
fn digits(mut n: u64, buf: &mut [u8; 20]) -> usize {
    let mut at = buf.len();
    while n >= 100 {
        let pair = 2 * (n % 100) as usize;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = 2 * n as usize;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    at
}

/// Appends `n` in decimal.
#[inline]
pub(crate) fn write_u64(out: &mut Vec<u8>, n: u64) {
    let mut buf = [0u8; 20];
    let at = digits(n, &mut buf);
    out.extend_from_slice(&buf[at..]);
}

/// Appends `i` in decimal.
#[inline]
pub(crate) fn write_i64(out: &mut Vec<u8>, i: i64) {
    if i < 0 {
        out.push(b'-');
    }
    write_u64(out, i.unsigned_abs());
}

/// Appends a finite float as `Display` writes it, then `.0` if integral.
#[inline]
pub(crate) fn write_f64(out: &mut Vec<u8>, f: f64) {
    debug_assert!(f.is_finite());
    if f.is_sign_negative() {
        out.push(b'-');
    }
    let f = f.abs();
    if f < EXACT_INT_LIMIT && (f as u64) as f64 == f {
        write_u64(out, f as u64);
        out.extend_from_slice(b".0");
        return;
    }
    // Every float left is non-zero, and integral only if its shortest
    // digits end at or left of the units place.
    let (significand, exponent) = shortest(f.to_bits());
    let mut buf = [0u8; 20];
    let at = digits(significand, &mut buf);
    let digits = &buf[at..];
    // How many of the digits stand left of the decimal point.
    let point = digits.len() as i32 + exponent;
    if exponent >= 0 {
        out.extend_from_slice(digits);
        out.resize(out.len() + exponent as usize, b'0');
        out.extend_from_slice(b".0");
    } else if point > 0 {
        let (int, frac) = digits.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        out.extend_from_slice(digits);
    }
}

// ------------------------------------------------------------------ Ryu --

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Bits kept of each power of five, and of each inverse.
const POW5_BITS: i32 = 125;
const POW5_INV_BITS: i32 = 125;

/// `5^i` cut to its top [`POW5_BITS`] bits, for `i < 326`.
static POW5: [u128; 326] = tables().0;
/// `⌊2^(bitlen(5^i) - 1 + POW5_INV_BITS) / 5^i⌋ + 1`, for `i < 342`.
static POW5_INV: [u128; 342] = tables().1;

/// The significand and decimal exponent of the shortest decimal that reads
/// back as the positive, finite, non-zero float `bits`, nearest to it among
/// the shortest, ties to the larger.
fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as i32;
    // The float is m2 · 2^(e2 + 2), so mv = 4·m2 is the float in units of
    // 2^e2, and mv + 2 and mv - 1 - mm_shift bound the interval of values
    // that round to it.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-to-even parsing reads a bound back as this float when m2 is even.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The gap below a power of two is half the gap above it.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // Scale the three to decimal, v · 2^e2 / 10^e10, truncated to vr, vp
    // and vm. `vm_exact` records that the truncation lost nothing from an
    // acceptable lower bound, so vm itself may be the output; an excluded
    // upper bound that lost nothing is pulled in by one.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_exact = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITS + pow5_bits(q as i32) - 1;
        let j = (q as i32 + k - e2) as u32;
        (vr, vp, vm) = mul_shift_all(m2, mm_shift, POW5_INV[q as usize], j);
        // At most one of the three is a multiple of 5: when mv is, neither
        // bound can be exact.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_exact = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITS;
        let j = (q as i32 - k) as u32;
        (vr, vp, vm) = mul_shift_all(m2, mm_shift, POW5[i as usize], j);
        if q <= 1 {
            // The lower bound, mv - 1 - mm_shift, has a trailing zero bit
            // iff mm_shift is 1; the upper, mv + 2, always has one.
            if accept_bounds {
                vm_exact = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter decimal,
    // remembering whether the last dropped digit rounds vr up. On an exact
    // tie (a dropped 5 with nothing after it) that is up, as std rounds.
    let mut removed = 0;
    let mut round_up = false;
    if !vm_exact && vp / 100 > vm / 100 {
        round_up = vr % 100 >= 50;
        (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
        removed += 2;
    }
    while vp / 10 > vm / 10 {
        vm_exact &= vm % 10 == 0;
        round_up = vr % 10 >= 5;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_exact {
        // vm is an exact, acceptable bound: its trailing zeros go too.
        while vm % 10 == 0 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // Take vr + 1 when vr is an excluded lower bound or rounds up.
    let output = vr + u64::from((vr == vm && !vm_exact) || round_up);
    (output, e10 + removed)
}

/// `(4m · mul) >> j`, `(4m + 2) · mul >> j` and `(4m - 1 - mm_shift) · mul >> j`.
#[inline]
fn mul_shift_all(m: u64, mm_shift: u64, mul: u128, j: u32) -> (u64, u64, u64) {
    let shift = |m: u64| {
        let low = u128::from(m) * (mul as u64 as u128);
        let high = u128::from(m) * (mul >> 64);
        (((low >> 64) + high) >> (j - 64)) as u64
    };
    (shift(4 * m), shift(4 * m + 2), shift(4 * m - 1 - mm_shift))
}

/// `⌊log10(2^e)⌋` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10(5^e)⌋` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// The bit length of `5^e` (1 for `e == 0`), for `0 <= e <= 3528`.
const fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) && count < p {
        v /= 5;
        count += 1;
    }
    count >= p
}

// --------------------------------------------------------------- tables --

/// An exact unsigned integer of up to 960 bits, low limb first: wide
/// enough for `2^916`, the largest power of two the inverse table divides.
type Big = [u64; 15];

const fn big_bits(x: &Big) -> i32 {
    let mut i = x.len();
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return 64 * i as i32 + 64 - x[i].leading_zeros() as i32;
        }
    }
    0
}

const fn big_times5(x: &mut Big) {
    let mut carry = 0u128;
    let mut i = 0;
    while i < x.len() {
        let wide = x[i] as u128 * 5 + carry;
        x[i] = wide as u64;
        carry = wide >> 64;
        i += 1;
    }
    assert!(carry == 0, "power of five overflows the big integer");
}

/// Divides in place, rounding down: `⌊⌊x/5⌋/5⌋ = ⌊x/25⌋`, so repeated
/// division keeps `⌊2^N / 5^i⌋` exact.
const fn big_div5(x: &mut Big) {
    let mut rem = 0u128;
    let mut i = x.len();
    while i > 0 {
        i -= 1;
        let wide = rem << 64 | x[i] as u128;
        x[i] = (wide / 5) as u64;
        rem = wide % 5;
    }
}

/// `⌊x / 2^lo⌋`, which must fit in 128 bits.
const fn big_shr(x: &Big, lo: i32) -> u128 {
    let (limb, bit) = ((lo / 64) as usize, (lo % 64) as u32);
    let mut wide = [0u64; 3];
    let mut i = 0;
    while i < 3 {
        if limb + i < x.len() {
            wide[i] = x[limb + i];
        }
        i += 1;
    }
    let low = (wide[0] as u128 | (wide[1] as u128) << 64) >> bit;
    let high = if bit == 0 {
        0
    } else {
        (wide[2] as u128) << (128 - bit)
    };
    low | high
}

/// Both tables, from 5^i and ⌊2^916 / 5^i⌋ kept exact entry by entry.
const fn tables() -> ([u128; 326], [u128; 342]) {
    const N: i32 = 916;
    let (mut pow5, mut inv) = ([0u128; 326], [0u128; 342]);
    let mut pow: Big = [0; 15];
    pow[0] = 1;
    let mut quotient: Big = [0; 15];
    quotient[(N / 64) as usize] = 1 << (N % 64);
    let mut i = 0;
    while i < inv.len() {
        let bits = big_bits(&pow);
        assert!(bits == pow5_bits(i as i32), "pow5_bits disagrees with 5^i");
        if i < pow5.len() {
            pow5[i] = if bits > POW5_BITS {
                big_shr(&pow, bits - POW5_BITS)
            } else {
                big_shr(&pow, 0) << (POW5_BITS - bits)
            };
        }
        let j = bits - 1 + POW5_INV_BITS;
        assert!(j <= N, "N too small for the inverse table");
        inv[i] = big_shr(&quotient, N - j) + 1;
        big_times5(&mut pow);
        big_div5(&mut quotient);
        i += 1;
    }
    (pow5, inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_entries_match_ryus_published_values() {
        let split = |t: u128| (t as u64, (t >> 64) as u64);
        assert_eq!(split(POW5[0]), (0, 1_152_921_504_606_846_976));
        assert_eq!(split(POW5[1]), (0, 1_441_151_880_758_558_720));
        assert_eq!(split(POW5_INV[0]), (1, 2_305_843_009_213_693_952));
        assert_eq!(
            split(POW5_INV[1]),
            (11_068_046_444_225_730_970, 1_844_674_407_370_955_161)
        );
    }
}
