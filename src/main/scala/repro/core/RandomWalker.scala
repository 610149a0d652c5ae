package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

import scala.util.Random

/** Sentence construction via random walks (§4.2, Algorithm 2) with the §5.1
  * budget / overlap-start heuristics and the §5.3 node-replacement hook.
  */
object RandomWalker {

  /** Which nodes get a walk budget. */
  sealed trait StartStrategy
  /** Every node starts walks — the single-relation default. */
  case object AllNodes extends StartStrategy
  /** Only token nodes start walks. */
  case object TokenNodes extends StartStrategy
  /** §5.1 imbalance heuristic: only tokens occurring in *both* datasets
    * (the bridge nodes) start walks. */
  final case class OverlapTokens(shared: Set[String]) extends StartStrategy

  final case class WalkConfig(
      walkLength: Int = 60,
      /** Total corpus size in tokens; the number of walks is
        * `corpusTokens / walkLength`, split evenly over start nodes with a
        * guaranteed budget of ≥ 1 walk per start node (§4.2). */
      corpusTokens: Long = 1_000_000L,
      startStrategy: StartStrategy = AllNodes,
      /** Algorithm 2 prepends a neighboring RID to walks from a token; §5.1
        * widens the pick to "RID or CID" to strengthen bridge evidence (set
        * this when using the overlap start strategy). */
      firstStepOrCid: Boolean = false,
      /** §5.3 emission-time replacement: node name → (replacement, prob).
        * The walk itself keeps stepping from the original node. */
      replacements: Map[String, (String, Double)] = Map.empty,
      seed: Long = 1234L,
  )

  /** Ids of the nodes that receive a walk budget under `strategy`. */
  def startNodes(graph: CompactGraph, strategy: StartStrategy): Array[Int] =
    strategy match {
      case AllNodes   => Array.range(0, graph.numNodes).filter(graph.degree(_) > 0)
      case TokenNodes => graph.nodeIdsOfType(0).filter(graph.degree(_) > 0)
      case OverlapTokens(shared) =>
        graph.nodeIdsOfType(0).filter(i => graph.degree(i) > 0 && shared.contains(graph.names(i)))
    }

  /** One walk from `start`, as node ids (before replacement). */
  private[repro] def walkFrom(graph: CompactGraph, start: Int, cfg: WalkConfig,
                             rng: Random): Array[Int] =
    if (graph.isToken(start))
      graph.randomNeighborOfKind(start, rng, orCid = cfg.firstStepOrCid) +:
        Walks.uniform(graph, start, cfg.walkLength - 1, rng)
    else Walks.uniform(graph, start, cfg.walkLength, rng)

  /** Render a walk into a sentence, applying emission-time replacement. */
  private[repro] def emit(graph: CompactGraph, walk: Array[Int], cfg: WalkConfig,
                         rng: Random): Array[String] =
    walk.map { id =>
      val name = graph.names(id)
      cfg.replacements.get(name) match {
        case Some((repl, p)) if rng.nextDouble() < p => repl
        case _ => name
      }
    }

  /** The walk corpus ([[Walks.corpus]]) with Algorithm 2's step and §5.3
    * emission-time replacement. Deterministic in `cfg.seed`. */
  def corpus(spark: SparkSession, graph: CompactGraph, cfg: WalkConfig): DataFrame = {
    // The step ships with every walk task: keep the start set (every shared value) out.
    val step = WalkConfig(walkLength = cfg.walkLength, firstStepOrCid = cfg.firstStepOrCid,
      replacements = cfg.replacements)
    Walks.corpus(spark, graph, startNodes(graph, cfg.startStrategy), cfg.corpusTokens,
      cfg.walkLength, cfg.seed) { (g, s, rng) => emit(g, walkFrom(g, s, step, rng), step, rng) }
  }

  /** Paper's corpus-size rule of thumb (§7.3):
    * `#corpus tokens = (#distinct values + #rows) * factor` (paper uses
    * factor 1000; benches default to 100 — see DESIGN.md §3). */
  def corpusTokensRule(nDistinctValues: Long, nRows: Long, factor: Long): Long =
    (nDistinctValues + nRows) * factor
}
