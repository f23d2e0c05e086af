//! The number writer against pinned text and against std's `Display`.

use serde::{Serialize, Serializer};

fn compact(value: &impl Serialize) -> String {
    let mut out = Serializer::compact();
    value.serialize(&mut out);
    out.finish().expect("finite values serialize")
}

/// What the writer must print for `f`: `Display`'s digits, then `.0` when
/// the float is integral, so that it parses back as a float.
fn oracle(f: f64) -> String {
    let mut text = format!("{f}");
    if f.trunc() == f {
        text.push_str(".0");
    }
    text
}

fn check(f: f64) {
    assert_eq!(compact(&f), oracle(f), "bits {:#018x}", f.to_bits());
}

#[test]
fn pinned_numbers() {
    let floats = [
        // A tie between two shortest candidates: std rounds up, Ryu to even.
        (0x4303_785f_ce2b_7172, "685047179210286.3".to_string()),
        (0x8000_0000_0000_0000, "-0.0".to_string()),
        (0x0000_0000_0000_0001, format!("0.{}5", "0".repeat(323))),
        (
            f64::MIN_POSITIVE.to_bits(),
            format!("0.{}22250738585072014", "0".repeat(307)),
        ),
        (
            f64::MAX.to_bits(),
            format!("17976931348623157{}.0", "0".repeat(292)),
        ),
        (1e21f64.to_bits(), "1000000000000000000000.0".to_string()),
        (1e22f64.to_bits(), "10000000000000000000000.0".to_string()),
        (1e23f64.to_bits(), "100000000000000000000000.0".to_string()),
        (0.1f64.to_bits(), "0.1".to_string()),
        (0.3f64.to_bits(), "0.3".to_string()),
        (0x433f_ffff_ffff_ffff, "9007199254740991.0".to_string()),
        (0x4340_0000_0000_0000, "9007199254740992.0".to_string()),
        (0x4340_0000_0000_0001, "9007199254740994.0".to_string()),
    ];
    for (bits, text) in floats {
        assert_eq!(compact(&f64::from_bits(bits)), text, "bits {bits:#018x}");
    }
    assert_eq!(
        compact(&f64::MAX).len(),
        311,
        "309 digits, then the `.0` marker"
    );
    assert_eq!(compact(&u64::MAX), "18446744073709551615");
    assert_eq!(compact(&i64::MIN), "-9223372036854775808");
    assert_eq!(compact(&0u64), "0");
    assert_eq!(compact(&-7i64), "-7");
}

/// SplitMix64: a fixed, dependency-free stream of test inputs.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[test]
fn random_bit_patterns_print_as_display_does() {
    let mut stream = Stream(1);
    let mut checked = 0;
    while checked < 200_000 {
        let f = f64::from_bits(stream.next());
        if f.is_finite() {
            check(f);
            checked += 1;
        }
    }
}

#[test]
fn every_power_of_two_and_its_neighbours_prints_as_display_does() {
    let mut f = f64::from_bits(1);
    while f.is_finite() {
        for bits in [f.to_bits() - 1, f.to_bits(), f.to_bits() + 1] {
            check(f64::from_bits(bits));
            check(-f64::from_bits(bits));
        }
        f *= 2.0;
    }
}

#[test]
fn integers_and_eighths_print_as_display_does() {
    let mut stream = Stream(2);
    for _ in 0..100_000 {
        let r = stream.next();
        // Integers of every magnitude up to 2^64, and eighths below 2^50,
        // whose digits end in .125, .25, .375, … or nothing.
        let int = (r >> (r % 64)) as f64;
        let eighth = (r >> 14) as f64 / 8.0;
        for f in [int, -int, eighth, -eighth] {
            check(f);
        }
    }
}

#[test]
fn integer_writers_print_as_display_does() {
    let mut stream = Stream(3);
    for _ in 0..100_000 {
        let r = stream.next();
        let u = r >> (r % 64);
        assert_eq!(compact(&u), u.to_string());
        let i = u as i64;
        assert_eq!(compact(&i), i.to_string());
    }
    for u in [0, 9, 10, 99, 100, 999, 1000, u64::MAX] {
        assert_eq!(compact(&u), u.to_string());
    }
}
