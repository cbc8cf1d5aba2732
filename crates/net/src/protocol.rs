//! Wire messages of the SmartCrowd protocol.
//!
//! The chain layer keeps record payloads opaque, so these messages carry
//! [`smartcrowd_chain::Record`]s and [`smartcrowd_chain::Block`]s; the core
//! crate interprets the payloads as SRAs / `R†` / `R*`.

use smartcrowd_chain::header::BlockId;
use smartcrowd_chain::{Block, Record};
use smartcrowd_crypto::Digest;

/// A protocol message travelling between SmartCrowd nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A signed record (SRA, initial report, detailed report, transfer)
    /// propagating toward the providers' mempools (§V-B: reports "will be
    /// delivered to all IoT providers").
    Record(Record),
    /// A freshly mined block, "broadcast and synchronized among IoT
    /// providers" (§V-C).
    Block(Box<Block>),
    /// A request for the system image behind an SRA (the `U_l` download of
    /// §V-B: "detectors download and obtain the released IoT system").
    ImageRequest {
        /// Hash of the requested image (`U_h`).
        image_hash: Digest,
    },
    /// The image bytes answering an [`Message::ImageRequest`].
    ImageResponse {
        /// Hash of the delivered image.
        image_hash: Digest,
        /// The image bytes.
        image: Vec<u8>,
    },
    /// A request for a missing block (a lagging node filling a gap its
    /// sync buffer discovered).
    BlockRequest {
        /// The wanted block id.
        id: BlockId,
    },
}

impl Message {
    /// Exact size in bytes (for bandwidth accounting): the length of the
    /// canonical encoding of a record or block, read off the bytes they
    /// already hold rather than by encoding them.
    pub(crate) fn wire_size(&self) -> usize {
        match self {
            Message::Record(r) => r.encoded().len(),
            Message::Block(b) => b.encoded_len(),
            Message::ImageRequest { .. } => 32,
            Message::ImageResponse { image, .. } => 32 + image.len(),
            Message::BlockRequest { .. } => 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrowd_chain::record::RecordKind;
    use smartcrowd_chain::{Difficulty, Ether};
    use smartcrowd_crypto::keys::KeyPair;

    #[test]
    fn tags_and_sizes() {
        let kp = KeyPair::from_seed(b"n");
        let record = Record::signed(RecordKind::Transfer, vec![1, 2, 3], Ether::ZERO, 0, &kp);
        let m = Message::Record(record);
        assert!(m.wire_size() > 90);

        let b = Message::Block(Box::new(Block::genesis(Difficulty::from_u64(1))));
        assert!(b.wire_size() > 50);

        let req = Message::ImageRequest {
            image_hash: [0u8; 32],
        };
        assert_eq!(req.wire_size(), 32);
        let resp = Message::ImageResponse {
            image_hash: [0u8; 32],
            image: vec![0; 100],
        };
        assert_eq!(resp.wire_size(), 132);
    }

    #[test]
    fn wire_size_is_the_encoded_length() {
        // `net.gossip.bytes` is summed from `wire_size`, which no longer
        // encodes: payloads from 0 to 4 KiB, blocks of 0 to 80 records.
        let kp = KeyPair::from_seed(b"n");
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let mut records = Vec::new();
        for n in 0..=80u64 {
            let block = Block::assemble(
                &genesis,
                records.clone(),
                genesis.header().timestamp + 15,
                Difficulty::from_u64(1),
                kp.address(),
            );
            let bytes = block.encode().len();
            assert_eq!(Message::Block(Box::new(block)).wire_size(), bytes);

            let payload = vec![n as u8; (n as usize * 4096) / 80];
            let record = Record::signed(RecordKind::Transfer, payload, Ether::ZERO, n, &kp);
            let bytes = record.encode().len();
            assert_eq!(Message::Record(record.clone()).wire_size(), bytes);
            records.push(record);
        }
    }
}
