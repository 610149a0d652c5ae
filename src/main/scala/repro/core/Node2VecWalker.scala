package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Second-order biased random walks of node2vec (Grover & Leskovec, KDD'16)
  * over the same tripartite graph — the paper's Node2Vec baseline.
  *
  * Transition weight from `cur` to candidate `x` given previous node `prev`:
  * `1/p` if `x == prev`, `1` if `x` is a neighbor of `prev`, `1/q` otherwise.
  * Sampling uses rejection sampling against the max weight, which draws from
  * exactly the normalized bias distribution without alias tables.
  */
object Node2VecWalker {

  final case class N2VConfig(
      walkLength: Int = 60,
      corpusTokens: Long = 1_000_000L,
      p: Double = 1.0,
      q: Double = 1.0,
      seed: Long = 4321L,
  )

  private[core] def walkFrom(graph: CompactGraph, start: Int, cfg: N2VConfig,
                             rng: Random): Array[Int] = {
    val out = new ArrayBuffer[Int](cfg.walkLength)
    out += start
    if (graph.degree(start) == 0) return out.toArray
    var prev = -1
    var cur = start
    val wMax = math.max(1.0, math.max(1.0 / cfg.p, 1.0 / cfg.q))
    while (out.length < cfg.walkLength) {
      var next = -1
      if (prev < 0) next = graph.randomNeighbor(cur, rng)
      else {
        // Rejection-sample the second-order distribution.
        var accepted = false
        var guard = 0
        while (!accepted) {
          val cand = graph.randomNeighbor(cur, rng)
          val w =
            if (cand == prev) 1.0 / cfg.p
            else if (graph.hasEdge(prev, cand)) 1.0
            else 1.0 / cfg.q
          guard += 1
          if (rng.nextDouble() * wMax <= w || guard > 1000) { next = cand; accepted = true }
        }
      }
      out += next
      prev = cur
      cur = next
    }
    out.toArray
  }

  /** The walk corpus ([[Walks.corpus]]) with the p/q rejection step, from
    * every connected node. */
  def corpus(spark: SparkSession, graph: CompactGraph, cfg: N2VConfig): DataFrame =
    Walks.corpus(spark, graph, RandomWalker.startNodes(graph, RandomWalker.AllNodes),
      cfg.corpusTokens, cfg.walkLength, cfg.seed) { (g, s, rng) =>
      walkFrom(g, s, cfg, rng).map(g.names)
    }
}
