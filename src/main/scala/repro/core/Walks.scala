package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel

import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag
import scala.util.Random

/** The one walk engine behind EmbDI (Algorithm 2), Node2Vec and HARP: a
  * corpus producer with a pluggable step, and the walk-then-train driver
  * that times it (Table 6's W and E).
  */
object Walks {

  /** Partitions of every walk corpus. Fixed rather than configurable: with
    * `spark.default.parallelism` unset, MLlib's Word2Vec vocabulary order
    * follows the corpus partitioning, so another value changes the trained
    * models. The corpus itself does not depend on it (seeds are per walk). */
  val NumPartitions = 16

  /** The walk corpus as a DataFrame with one `sentence` column of
    * `array<string>`, the shape MLlib Word2Vec consumes. `payload` (the graph
    * and whatever the step reads) is broadcast once. The corpus holds
    * `corpusTokens / walkLength` walks, at least one per start node, split
    * evenly over `starts` (the remainder is dropped). Walk `w` from `s` draws
    * from `Rand.of(seed, seedKey(s), w)`, so the corpus depends only on the
    * seed and the order of `starts`, never on the partitioning. */
  def corpus[P: ClassTag](spark: SparkSession, payload: P, starts: Array[Int],
                          corpusTokens: Long, walkLength: Int, seed: Long,
                          seedKey: Int => Long = _.toLong)
                         (step: (P, Int, Random) => Array[String]): DataFrame = {
    import spark.implicits._
    require(starts.nonEmpty, "no start nodes: the graph has no edges or the start set is empty")
    val perNode =
      math.max(1L, math.max(starts.length.toLong, corpusTokens / walkLength) / starts.length).toInt
    val bp = spark.sparkContext.broadcast(payload)
    spark.sparkContext.parallelize(starts.toIndexedSeq, NumPartitions)
      .flatMap { s =>
        val p = bp.value
        val key = seedKey(s)
        (0 until perNode).iterator.map(w => step(p, s, Rand.of(seed, key, w.toLong)))
      }
      .toDF("sentence")
  }

  /** A uniform random walk of `length` node ids from `start` (Algorithm 2's
    * loop); always holds at least `start`. */
  private[repro] def uniform(graph: CompactGraph, start: Int, length: Int, rng: Random): Array[Int] = {
    val out = new ArrayBuffer[Int](length)
    out += start
    var cur = start
    while (out.length < length) {
      cur = graph.randomNeighbor(cur, rng)
      out += cur
    }
    out.toArray
  }

  /** A trained model with its corpus size and wall-clock split: walking
    * (corpus materialisation) vs training. */
  final case class Trained(model: EmbeddingModel, nSentences: Long, walkMs: Long, trainMs: Long)

  /** Materialise `corpus` (timed as the walk), train Word2Vec on it (timed
    * as training), then release it. `corpus` is by-name so that the work of
    * building it on the driver counts as walk time. */
  def walkAndTrain(corpus: => DataFrame, w2v: EmbeddingTrainer.W2VConfig): Trained = {
    val t0 = System.nanoTime()
    val c = corpus.persist(StorageLevel.MEMORY_AND_DISK)
    val n = c.count()
    val t1 = System.nanoTime()
    val model = EmbeddingTrainer.train(c, w2v)
    val t2 = System.nanoTime()
    c.unpersist()
    Trained(model, n, (t1 - t0) / 1_000_000L, (t2 - t1) / 1_000_000L)
  }
}
