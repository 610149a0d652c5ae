package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core.{CompactGraph, EmbeddingTrainer, RandomWalker, Walks}

import scala.util.Random

/** The HARP baseline of §7 (Chen et al., AAAI'18), rebuilt as a
  * multi-granularity walk corpus (DESIGN.md §3).
  *
  * HARP coarsens the graph into a hierarchy (edge collapsing), learns
  * embeddings at the coarsest level, and warm-starts each finer level from
  * its parent. MLlib's Word2Vec cannot be warm-started, so we keep the
  * hierarchy but substitute the transfer mechanism: walks are generated at
  * *every* level, supernodes are expanded to uniformly-drawn members at
  * emission, and a single Word2Vec trains over the combined corpus — fine
  * nodes still receive the higher-order structural context of their
  * supernode neighborhoods, which is the property HARP adds over plain
  * walks.
  */
object Harp {

  final case class Config(
      levels: Int = 2,
      corpusTokens: Long = 1_000_000L,
      walkLength: Int = 60,
      w2v: EmbeddingTrainer.W2VConfig = EmbeddingTrainer.W2VConfig(),
      seed: Long = 5555L,
  )

  /** One coarsening step by randomized maximal edge matching.
    * Returns (coarse graph, fine-node-id → coarse-node-id), or None when
    * matching leaves a supernode without an edge: a graph built from edges
    * cannot hold it. Coarse node names are `h<level>__<representative>` so
    * levels never collide. */
  private[baselines] def coarsen(g: CompactGraph, level: Int,
                                 seed: Long): Option[(CompactGraph, Array[Int])] = {
    val rng = new Random(seed)
    val match_ = Array.fill(g.numNodes)(-1)
    // Visit nodes in random order; match each unmatched node to a random
    // unmatched neighbor (edge collapsing).
    val order = rng.shuffle((0 until g.numNodes).toVector)
    order.foreach { u =>
      if (match_(u) < 0 && g.degree(u) > 0) {
        val nbrs = g.neighborsOf(u).filter(match_(_) < 0)
        if (nbrs.nonEmpty) {
          val v = nbrs(rng.nextInt(nbrs.length))
          match_(u) = u; match_(v) = u // u is the representative
        }
      }
    }
    (0 until g.numNodes).foreach(u => if (match_(u) < 0) match_(u) = u)
    val repName = (u: Int) => s"h${level}__${g.names(match_(u))}"
    val coarseEdges = (0 until g.numNodes).flatMap { u =>
      g.neighborsOf(u).map(v => (repName(u), repName(v)))
    }.filter { case (a, b) => a != b }
    val coarse = CompactGraph.build(coarseEdges)
    if (coarse.numNodes < match_.distinct.length) None
    else Some((coarse, Array.tabulate(g.numNodes)(u => coarse.index(repName(u)))))
  }

  /** Train HARP embeddings over the finest graph `g0`. The hierarchy stops
    * before `cfg.levels` when coarsening one more level would leave a
    * supernode without an edge. */
  def train(spark: SparkSession, g0: CompactGraph, cfg: Config): Walks.Trained =
    Walks.walkAndTrain({
      // (level graph, fine-node-id → level-node-id), finest level first.
      def hierarchy(g: CompactGraph, toLevel: Array[Int], lvl: Int): List[(CompactGraph, Array[Int])] =
        (g, toLevel) :: (if (lvl > cfg.levels) Nil
          else coarsen(g, lvl, cfg.seed + lvl).toList.flatMap { case (coarse, m) =>
            hierarchy(coarse, toLevel.map(m), lvl + 1)
          })
      val levels = hierarchy(g0, Array.range(0, g0.numNodes), 1)
      levels.zipWithIndex.map { case ((g, toLevel), lvl) =>
        // Fine node names per level node; a walk emits a random member.
        val members = Array.fill(g.numNodes)(List.empty[String])
        (0 until g0.numNodes).foreach { u => members(toLevel(u)) ::= g0.names(u) }
        Walks.corpus(spark, (g, members.map(_.toArray)),
          RandomWalker.startNodes(g, RandomWalker.AllNodes), cfg.corpusTokens / levels.size,
          cfg.walkLength, cfg.seed, s => lvl * 1_000_003L + s) { case ((graph, mem), s, rng) =>
          Walks.uniform(graph, s, cfg.walkLength, rng).map { id =>
            val m = mem(id)
            m(rng.nextInt(m.length))
          }
        }
      }.reduce(_ union _)
    }, cfg.w2v)
}
