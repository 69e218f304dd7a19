//! DRAM geometry and parameter address mapping.

/// Geometry of the simulated DRAM device holding the victim's parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramGeometry {
    /// Number of banks.
    pub banks: usize,
    /// Rows per bank.
    pub rows_per_bank: usize,
    /// Bytes per row.
    pub row_bytes: usize,
}

impl Default for DramGeometry {
    fn default() -> Self {
        // A modest DDR4-like chip slice: 8 banks × 32768 rows × 8 KiB.
        Self {
            banks: 8,
            rows_per_bank: 32_768,
            row_bytes: 8192,
        }
    }
}

impl DramGeometry {
    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.banks * self.rows_per_bank * self.row_bytes
    }
}

/// Physical location of one `f32` parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamAddress {
    /// Bank index.
    pub bank: usize,
    /// Row within the bank.
    pub row: usize,
    /// Byte offset of the word within the row.
    pub byte: usize,
}

impl ParamAddress {
    /// Identifier of the (bank, row) pair — rowhammer works at this
    /// granularity.
    pub fn row_id(&self) -> (usize, usize) {
        (self.bank, self.row)
    }
}

/// Maps a contiguous parameter buffer onto DRAM rows.
///
/// Rows are filled sequentially and striped across banks (row-interleaved
/// mapping, the common open-page policy layout). The word size is the
/// storage width of one parameter: 4 bytes for the `f32` pipeline
/// ([`ParamLayout::new`]), 1 byte for the int8 backend
/// ([`ParamLayout::with_word_bytes`]) — the same geometry holds 4× as
/// many quantized parameters per row, which is precisely why the int8
/// story changes the parity and audit arithmetic.
#[derive(Debug, Clone)]
pub struct ParamLayout {
    geometry: DramGeometry,
    base_byte: usize,
    len: usize,
    word_bytes: usize,
}

impl ParamLayout {
    /// Lays out `len` `f32` parameters (4-byte words) starting at byte
    /// address `base_byte`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer exceeds the device capacity or the base is
    /// not 4-byte aligned.
    pub fn new(geometry: DramGeometry, base_byte: usize, len: usize) -> Self {
        Self::with_word_bytes(geometry, base_byte, len, 4)
    }

    /// Lays out `len` parameters of `word_bytes` bytes each starting at
    /// byte address `base_byte` — `word_bytes = 1` is the int8 backend's
    /// one-byte-per-parameter storage.
    ///
    /// # Panics
    ///
    /// Panics if `word_bytes` is zero or does not divide the row size
    /// (a word straddling a row boundary would belong to two rows,
    /// which the per-row parity/flip arithmetic does not model), the
    /// buffer exceeds the device capacity, or the base is not
    /// word-aligned.
    pub fn with_word_bytes(
        geometry: DramGeometry,
        base_byte: usize,
        len: usize,
        word_bytes: usize,
    ) -> Self {
        assert!(
            word_bytes > 0 && geometry.row_bytes.is_multiple_of(word_bytes),
            "word size {word_bytes} must divide the row size {}",
            geometry.row_bytes
        );
        assert_eq!(
            base_byte % word_bytes,
            0,
            "parameter base must be word aligned"
        );
        assert!(
            base_byte + word_bytes * len <= geometry.capacity(),
            "parameter buffer ({} bytes at {base_byte}) exceeds DRAM capacity {}",
            word_bytes * len,
            geometry.capacity()
        );
        Self {
            geometry,
            base_byte,
            len,
            word_bytes,
        }
    }

    /// Number of parameters laid out.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the layout is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The geometry this layout lives on.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Storage width of one parameter in bytes.
    pub fn word_bytes(&self) -> usize {
        self.word_bytes
    }

    /// Physical address of parameter `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn address(&self, index: usize) -> ParamAddress {
        assert!(
            index < self.len,
            "parameter index {index} out of range {}",
            self.len
        );
        let byte_addr = self.base_byte + self.word_bytes * index;
        let global_row = byte_addr / self.geometry.row_bytes;
        let bank = global_row % self.geometry.banks;
        let row = global_row / self.geometry.banks;
        ParamAddress {
            bank,
            row,
            byte: byte_addr % self.geometry.row_bytes,
        }
    }

    /// The parameter indices that share `index`'s row, ascending. A
    /// `(bank, row)` pair is one global row, so they are one contiguous
    /// run of the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub(crate) fn row_indices(&self, index: usize) -> std::ops::Range<usize> {
        assert!(
            index < self.len,
            "parameter index {index} out of range {}",
            self.len
        );
        let row_bytes = self.geometry.row_bytes;
        let byte_addr = self.base_byte + self.word_bytes * index;
        let row_start = byte_addr - byte_addr % row_bytes;
        let lo = (row_start.max(self.base_byte) - self.base_byte) / self.word_bytes;
        let hi = (row_start + row_bytes - self.base_byte) / self.word_bytes;
        lo..hi.min(self.len)
    }

    /// Distinct `(bank, row)` pairs touched by the given parameter
    /// indices.
    pub fn rows_touched(&self, indices: &[usize]) -> Vec<(usize, usize)> {
        let mut rows: Vec<(usize, usize)> =
            indices.iter().map(|&i| self.address(i).row_id()).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_are_sequential_within_a_row() {
        let layout = ParamLayout::new(DramGeometry::default(), 0, 4096);
        let a0 = layout.address(0);
        let a1 = layout.address(1);
        assert_eq!(a0.row_id(), a1.row_id());
        assert_eq!(a1.byte, a0.byte + 4);
    }

    #[test]
    fn row_boundary_advances_bank() {
        let g = DramGeometry {
            banks: 4,
            rows_per_bank: 16,
            row_bytes: 64,
        };
        let layout = ParamLayout::new(g, 0, 64);
        let last_in_row0 = layout.address(15); // 15*4 = 60 < 64
        let first_in_row1 = layout.address(16); // 64 → global row 1 → bank 1
        assert_eq!(last_in_row0.row_id(), (0, 0));
        assert_eq!(first_in_row1.row_id(), (1, 0));
    }

    #[test]
    fn row_indices_are_exactly_the_words_of_a_row() {
        // Unaligned bases, both word widths, several bank counts: every
        // index's span holds exactly the indices whose address shares
        // its row.
        for (banks, base, word_bytes, len) in [(1, 0, 4, 40), (3, 12, 4, 61), (2, 5, 1, 150)] {
            let g = DramGeometry {
                banks,
                rows_per_bank: 16,
                row_bytes: 32,
            };
            let layout = ParamLayout::with_word_bytes(g, base, len, word_bytes);
            for i in 0..len {
                let id = layout.address(i).row_id();
                let want: Vec<usize> = (0..len)
                    .filter(|&j| layout.address(j).row_id() == id)
                    .collect();
                assert_eq!(layout.row_indices(i).collect::<Vec<_>>(), want, "index {i}");
            }
        }
    }

    #[test]
    fn rows_touched_dedupes() {
        let g = DramGeometry {
            banks: 2,
            rows_per_bank: 8,
            row_bytes: 32,
        };
        let layout = ParamLayout::new(g, 0, 32);
        // Params 0..8 share row (0,0); 8..16 share (1,0).
        let rows = layout.rows_touched(&[0, 1, 7, 8, 9]);
        assert_eq!(rows, vec![(0, 0), (1, 0)]);
    }

    #[test]
    fn byte_granular_layout_packs_four_times_as_many_words() {
        let g = DramGeometry {
            banks: 2,
            rows_per_bank: 8,
            row_bytes: 64,
        };
        let f32_layout = ParamLayout::new(g, 0, 32);
        let i8_layout = ParamLayout::with_word_bytes(g, 0, 32, 1);
        assert_eq!(i8_layout.word_bytes(), 1);
        // 16 f32 words per row vs 64 bytes per row.
        assert_eq!(f32_layout.address(16).row_id(), (1, 0));
        assert_eq!(i8_layout.address(16).row_id(), (0, 0));
        assert_eq!(i8_layout.address(16).byte, 16);
        // The whole int8 buffer fits in the first row.
        assert_eq!(
            i8_layout.rows_touched(&(0..32).collect::<Vec<_>>()).len(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "must divide the row size")]
    fn straddling_word_sizes_are_rejected() {
        // A 3-byte word would straddle row boundaries of a 64-byte row;
        // per-row flip accounting cannot attribute it to one row.
        let g = DramGeometry {
            banks: 2,
            rows_per_bank: 8,
            row_bytes: 64,
        };
        let _ = ParamLayout::with_word_bytes(g, 0, 16, 3);
    }

    #[test]
    #[should_panic(expected = "exceeds DRAM capacity")]
    fn capacity_is_enforced() {
        let g = DramGeometry {
            banks: 1,
            rows_per_bank: 1,
            row_bytes: 64,
        };
        let _ = ParamLayout::new(g, 0, 1000);
    }

    #[test]
    fn sparse_l0_modifications_touch_few_rows() {
        // The experiment-scale sanity check behind the paper's hardware
        // motivation: 2010 params fit in ~1 row, so a sparse δ touches at
        // most a couple of rows.
        let layout = ParamLayout::new(DramGeometry::default(), 0, 2010);
        let all: Vec<usize> = (0..2010).collect();
        assert!(layout.rows_touched(&all).len() <= 2);
    }
}
