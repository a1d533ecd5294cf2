//! Chip / page / block geometry shared by every layer of the simulator.
//!
//! The paper's setup (§IV-A): 64 B memory blocks (the last-level-cache line
//! size and the wear-leveling unit), 4 KB OS pages, and a 1 GB chip. All of
//! those are configurable here; experiments default to a scaled-down chip
//! (see `DESIGN.md` §6) because lifetime results are reported normalized.

use crate::addr::{Da, Pa, PageId};
use core::fmt;

/// Errors produced when validating a [`Geometry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeometryError {
    /// A size parameter was zero.
    Zero(&'static str),
    /// `page_bytes` is not a multiple of `block_bytes`.
    PageNotMultipleOfBlock {
        /// Configured page size in bytes.
        page_bytes: u64,
        /// Configured block size in bytes.
        block_bytes: u64,
    },
    /// `num_blocks` is not a multiple of the blocks-per-page count.
    BlocksNotMultipleOfPage {
        /// Configured number of blocks.
        num_blocks: u64,
        /// Blocks per page implied by the sizes.
        blocks_per_page: u64,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::Zero(what) => write!(f, "geometry parameter `{what}` must be nonzero"),
            GeometryError::PageNotMultipleOfBlock {
                page_bytes,
                block_bytes,
            } => write!(
                f,
                "page size {page_bytes} B is not a multiple of block size {block_bytes} B"
            ),
            GeometryError::BlocksNotMultipleOfPage {
                num_blocks,
                blocks_per_page,
            } => write!(
                f,
                "block count {num_blocks} is not a multiple of blocks-per-page {blocks_per_page}"
            ),
        }
    }
}

impl std::error::Error for GeometryError {}

/// Immutable description of the simulated memory's shape.
///
/// The *software-visible* space is `num_blocks` blocks (`num_pages` OS
/// pages). Wear-leveling schemes may use extra device blocks beyond
/// `num_blocks` (e.g. Start-Gap's gap line); those are owned by the device
/// model, not by `Geometry`.
///
/// ```
/// use wlr_base::geometry::Geometry;
/// let geo = Geometry::builder()
///     .block_bytes(64)
///     .page_bytes(4096)
///     .num_blocks(1 << 16)
///     .build()?;
/// assert_eq!(geo.num_pages(), 1024);
/// assert_eq!(geo.blocks_per_page(), 64);
/// # Ok::<(), wlr_base::geometry::GeometryError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    block_bytes: u64,
    page_bytes: u64,
    num_blocks: u64,
    /// `page_bytes / block_bytes`, divided once by the builder.
    blocks_per_page: u64,
    /// `log2(blocks_per_page)` when that is a power of two (it is at every
    /// supported geometry): keeps 64-bit division off the per-write path.
    page_shift: Option<u32>,
}

impl Geometry {
    /// Starts building a geometry; defaults to 64 B blocks, 4 KB pages and
    /// a 2^16-block (4 MB) chip.
    pub fn builder() -> GeometryBuilder {
        GeometryBuilder::default()
    }

    /// The paper's full-scale configuration: 1 GB chip, 64 B blocks, 4 KB
    /// pages (2^24 blocks).
    ///
    /// ```
    /// let geo = wlr_base::Geometry::paper_scale();
    /// assert_eq!(geo.num_blocks(), 1 << 24);
    /// ```
    pub fn paper_scale() -> Self {
        Geometry::builder()
            .num_blocks(1 << 24)
            .build()
            .expect("the paper's geometry is valid")
    }

    /// Block size in bytes (the wear-leveling unit).
    #[inline]
    pub const fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// OS page size in bytes.
    #[inline]
    pub const fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Number of software-visible blocks.
    #[inline]
    pub const fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// Number of blocks per OS page.
    #[inline]
    pub const fn blocks_per_page(&self) -> u64 {
        self.blocks_per_page
    }

    /// Number of OS pages.
    #[inline]
    pub const fn num_pages(&self) -> u64 {
        self.page_split(self.num_blocks).0
    }

    /// Number of bits in one block (the ECP bit-group size when groups are
    /// block-sized, as in the paper's 512-bit groups for 64 B blocks).
    #[inline]
    pub const fn block_bits(&self) -> u64 {
        self.block_bytes * 8
    }

    /// Total chip capacity in bytes (software-visible portion).
    #[inline]
    pub const fn capacity_bytes(&self) -> u64 {
        self.num_blocks * self.block_bytes
    }

    /// The page containing physical address `pa`.
    ///
    /// ```
    /// # use wlr_base::{Geometry, Pa, PageId};
    /// let geo = Geometry::builder().num_blocks(128).build().unwrap();
    /// assert_eq!(geo.page_of(Pa::new(64)), PageId::new(1));
    /// ```
    #[inline]
    pub fn page_of(&self, pa: Pa) -> PageId {
        PageId::new(self.page_split(pa.index()).0)
    }

    /// `(page, offset within the page)` of block index `block`.
    ///
    /// ```
    /// let geo = wlr_base::Geometry::builder().num_blocks(128).build().unwrap();
    /// assert_eq!(geo.page_split(70), (1, 6));
    /// ```
    #[inline]
    pub const fn page_split(&self, block: u64) -> (u64, u64) {
        match self.page_shift {
            Some(shift) => (block >> shift, block & (self.blocks_per_page - 1)),
            None => (block / self.blocks_per_page, block % self.blocks_per_page),
        }
    }

    /// The first PA of page `page`.
    #[inline]
    pub fn page_base(&self, page: PageId) -> Pa {
        Pa::new(page.index() * self.blocks_per_page())
    }

    /// Iterator over all PAs contained in `page`.
    ///
    /// ```
    /// # use wlr_base::{Geometry, PageId};
    /// let geo = Geometry::builder().num_blocks(128).build().unwrap();
    /// assert_eq!(geo.page_pas(PageId::new(1)).count(), 64);
    /// ```
    pub fn page_pas(&self, page: PageId) -> impl Iterator<Item = Pa> {
        let base = self.page_base(page).index();
        (base..base + self.blocks_per_page()).map(Pa::new)
    }

    /// Whether `pa` is within the software-visible space.
    #[inline]
    pub fn contains_pa(&self, pa: Pa) -> bool {
        pa.index() < self.num_blocks
    }

    /// Whether `da` addresses a software-visible-sized block index.
    /// (Device models may legitimately expose a handful more blocks.)
    #[inline]
    pub fn contains_da(&self, da: Da) -> bool {
        da.index() < self.num_blocks
    }
}

impl Default for Geometry {
    fn default() -> Self {
        GeometryBuilder::default()
            .build()
            .expect("default geometry is valid")
    }
}

/// Builder for [`Geometry`]; see [`Geometry::builder`].
#[derive(Debug, Clone)]
pub struct GeometryBuilder {
    block_bytes: u64,
    page_bytes: u64,
    num_blocks: u64,
}

impl Default for GeometryBuilder {
    fn default() -> Self {
        GeometryBuilder {
            block_bytes: 64,
            page_bytes: 4096,
            num_blocks: 1 << 16,
        }
    }
}

impl GeometryBuilder {
    /// Sets the block size in bytes.
    pub fn block_bytes(&mut self, bytes: u64) -> &mut Self {
        self.block_bytes = bytes;
        self
    }

    /// Sets the OS page size in bytes.
    pub fn page_bytes(&mut self, bytes: u64) -> &mut Self {
        self.page_bytes = bytes;
        self
    }

    /// Sets the number of software-visible blocks.
    pub fn num_blocks(&mut self, blocks: u64) -> &mut Self {
        self.num_blocks = blocks;
        self
    }

    /// Validates the configuration and produces a [`Geometry`].
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if any size is zero, the page size is not
    /// a multiple of the block size, or the block count is not a whole
    /// number of pages.
    pub fn build(&self) -> Result<Geometry, GeometryError> {
        if self.block_bytes == 0 {
            return Err(GeometryError::Zero("block_bytes"));
        }
        if self.page_bytes == 0 {
            return Err(GeometryError::Zero("page_bytes"));
        }
        if self.num_blocks == 0 {
            return Err(GeometryError::Zero("num_blocks"));
        }
        if !self.page_bytes.is_multiple_of(self.block_bytes) {
            return Err(GeometryError::PageNotMultipleOfBlock {
                page_bytes: self.page_bytes,
                block_bytes: self.block_bytes,
            });
        }
        let blocks_per_page = self.page_bytes / self.block_bytes;
        if !self.num_blocks.is_multiple_of(blocks_per_page) {
            return Err(GeometryError::BlocksNotMultipleOfPage {
                num_blocks: self.num_blocks,
                blocks_per_page,
            });
        }
        Ok(Geometry {
            block_bytes: self.block_bytes,
            page_bytes: self.page_bytes,
            num_blocks: self.num_blocks,
            blocks_per_page,
            page_shift: blocks_per_page
                .is_power_of_two()
                .then(|| blocks_per_page.trailing_zeros()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_design_doc() {
        let geo = Geometry::default();
        assert_eq!(geo.block_bytes(), 64);
        assert_eq!(geo.page_bytes(), 4096);
        assert_eq!(geo.num_blocks(), 1 << 16);
        assert_eq!(geo.blocks_per_page(), 64);
        assert_eq!(geo.num_pages(), 1024);
        assert_eq!(geo.block_bits(), 512);
        assert_eq!(geo.capacity_bytes(), 4 << 20);
    }

    #[test]
    fn paper_scale_is_one_gigabyte() {
        let geo = Geometry::paper_scale();
        assert_eq!(geo.capacity_bytes(), 1 << 30);
        assert_eq!(geo.num_pages(), 1 << 18);
    }

    #[test]
    fn page_arithmetic() {
        let geo = Geometry::builder().num_blocks(256).build().unwrap();
        assert_eq!(geo.page_of(Pa::new(0)), PageId::new(0));
        assert_eq!(geo.page_of(Pa::new(63)), PageId::new(0));
        assert_eq!(geo.page_of(Pa::new(64)), PageId::new(1));
        assert_eq!(geo.page_base(PageId::new(2)), Pa::new(128));
        let pas: Vec<_> = geo.page_pas(PageId::new(3)).collect();
        assert_eq!(pas.first(), Some(&Pa::new(192)));
        assert_eq!(pas.last(), Some(&Pa::new(255)));
        assert_eq!(pas.len(), 64);
    }

    #[test]
    fn page_arithmetic_without_a_power_of_two_ratio() {
        // 3 blocks per page: the division fallback of `page_split`.
        let geo = Geometry::builder()
            .page_bytes(192)
            .num_blocks(12)
            .build()
            .unwrap();
        assert_eq!(geo.blocks_per_page(), 3);
        assert_eq!(geo.num_pages(), 4);
        assert_eq!(geo.page_split(7), (2, 1));
        assert_eq!(geo.page_of(Pa::new(11)), PageId::new(3));
        assert_eq!(geo.page_base(PageId::new(3)), Pa::new(9));
    }

    #[test]
    fn containment() {
        let geo = Geometry::builder().num_blocks(128).build().unwrap();
        assert!(geo.contains_pa(Pa::new(127)));
        assert!(!geo.contains_pa(Pa::new(128)));
        assert!(geo.contains_da(Da::new(0)));
        assert!(!geo.contains_da(Da::new(1 << 40)));
    }

    #[test]
    fn rejects_zero_sizes() {
        assert_eq!(
            Geometry::builder().block_bytes(0).build(),
            Err(GeometryError::Zero("block_bytes"))
        );
        assert_eq!(
            Geometry::builder().page_bytes(0).build(),
            Err(GeometryError::Zero("page_bytes"))
        );
        assert_eq!(
            Geometry::builder().num_blocks(0).build(),
            Err(GeometryError::Zero("num_blocks"))
        );
    }

    #[test]
    fn rejects_misaligned_page() {
        let err = Geometry::builder()
            .block_bytes(48)
            .page_bytes(4096)
            .build()
            .unwrap_err();
        assert!(matches!(err, GeometryError::PageNotMultipleOfBlock { .. }));
        assert!(err.to_string().contains("not a multiple"));
    }

    #[test]
    fn rejects_partial_pages() {
        let err = Geometry::builder().num_blocks(100).build().unwrap_err();
        assert!(matches!(err, GeometryError::BlocksNotMultipleOfPage { .. }));
    }
}
